(* Shared plumbing: clocks, order statistics, process memory, the
   cross-run determinism record, and the result line. *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* CPU time of the whole process (all domains), which leaves out the
   time the hypervisor hands this machine's processors to other guests. *)
let cpu_time f =
  let t0 = Sys.time () in
  let r = f () in
  (r, Sys.time () -. t0)

(* --- host speed -------------------------------------------------------- *)

(* The machines this benchmark runs on are shared with other guests, and
   their speed drifts: within ten minutes the same single-domain sweep
   took from 1x to 1.8x its fastest CPU time, in stretches of seconds
   (README.md). A fixed reference loop slows down with it: timed in 5 s
   buckets over 90 s, a compile's CPU time spread by 0.37 (interquartile
   range over median) and its ratio to the loop's time by 0.011. So each
   timed section is read against the loop, run just before and just
   after it, and reported as [t *. reference_s /. r], with [r] the
   loop's mean CPU time around the section: seconds at the speed where
   the loop takes [reference_s]. The loop uses only the OCaml runtime
   and this file, so a change to the program moves the section's time
   but not [r]. *)
let reference_s = 0.005

let reference () =
  let a = Array.init 10_000 (fun i -> (i * 7919) land 65535) in
  Array.sort compare a;
  let h = Hashtbl.create 1024 in
  for i = 0 to 10_000 do
    Hashtbl.replace h (i land 4095) (string_of_int i)
  done;
  let l = List.init 15_000 float_of_int in
  ignore (List.fold_left ( +. ) 0.0 (List.rev_map (fun x -> x *. 1.5) l))

(* Every reading of the run, raw, for the traced runs' record. *)
let readings = ref []

(* One reading of the host's speed: the median CPU time of three loops. *)
let reference_time () =
  let r = Uu_support.Stats.median (List.init 3 (fun _ -> snd (cpu_time reference))) in
  readings := r :: !readings;
  r

let nproc () = Uu_support.Parallel.available_domains ()

(* The reading for a section that runs on [nproc] domains and is timed
   in wall time: the wall time of the loop run on every domain at once
   (median of five), which also slows when another guest holds one of
   the processors. The domains' shared minor collections make it slower
   than one loop alone, so a section read against it is in units of its
   own, comparable only with itself. *)
let wide_reference_time () =
  let n = nproc () in
  let once () =
    snd (time (fun () -> Uu_support.Parallel.map ~jobs:n (fun _ -> reference ()) (List.init n Fun.id)))
  in
  Uu_support.Stats.median (List.init 5 (fun _ -> once ()))

(* Consecutive sections share the reading between them. [scale] turns a
   section's raw time into reference seconds. [wide] readings are for
   sections on [nproc] domains timed in wall time. *)
type speed = { mutable last : float; read : unit -> float }

let speed ?(wide = false) () =
  let read = if wide then wide_reference_time else reference_time in
  { last = read (); read }

(* Call right after a timed section: the factor to multiply its raw
   times by. *)
let scale sp =
  let r = sp.read () in
  let k = reference_s /. ((sp.last +. r) /. 2.0) in
  sp.last <- r;
  k

(* A fresh reading, for a section that follows untimed work. *)
let reread sp = sp.last <- sp.read ()

let timed sp f =
  let x, t = f () in
  (x, t *. scale sp)

(* A set-up of a few milliseconds, timed in CPU time: [passes] passes
   at a time, nine times over; the median per-pass time in reference
   seconds. One pass alone is too short to time steadily. *)
let setup_time ~passes f =
  let sp = speed () in
  Uu_support.Stats.median
    (List.init 9 (fun _ ->
         snd (timed sp (fun () -> cpu_time (fun () -> for _ = 1 to passes do f () done)))
         /. float_of_int passes))

let sum = List.fold_left ( +. ) 0.0

(* Spearman rank correlation (average ranks for ties). *)
let spearman pairs =
  let ranks xs =
    let a = Array.of_list (List.mapi (fun i x -> (x, i)) xs) in
    Array.sort compare a;
    let r = Array.make (Array.length a) 0.0 in
    let i = ref 0 in
    while !i < Array.length a do
      let j = ref !i in
      while !j + 1 < Array.length a && fst a.(!j + 1) = fst a.(!i) do incr j done;
      let avg = float_of_int (!i + !j) /. 2.0 in
      for k = !i to !j do r.(snd a.(k)) <- avg done;
      i := !j + 1
    done;
    Array.to_list r
  in
  let rx = ranks (List.map fst pairs) and ry = ranks (List.map snd pairs) in
  let mx = Uu_support.Stats.mean rx and my = Uu_support.Stats.mean ry in
  let cov = sum (List.map2 (fun x y -> (x -. mx) *. (y -. my)) rx ry) in
  let sx = sqrt (sum (List.map (fun x -> (x -. mx) ** 2.0) rx)) in
  let sy = sqrt (sum (List.map (fun y -> (y -. my) ** 2.0) ry)) in
  cov /. (sx *. sy)

(* Peak resident set (VmHWM) of a process, in MiB. *)
let peak_rss_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%s/status" pid) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.starts_with ~prefix:"VmHWM:" line ->
          Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
        | _ -> scan ()
        | exception End_of_file -> failwith "no VmHWM in /proc status"
      in
      scan ())

(* Scratch space for the daemon's socket and cache and the determinism
   record, inside the directory the benchmark runs from. *)
let work_dir = ".perfbench"

let ensure_dir d = if not (Sys.file_exists d) then Sys.mkdir d 0o755

let rec remove_tree path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun e -> remove_tree (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* Deterministic outputs must read the same on every run of one build.
   The first run of a build writes them to a record named after the
   benchmark binary's digest; every later run compares against it. *)
let same_as_last_run ~workload (values : (string * string) list) =
  ensure_dir work_dir;
  let exe = Digest.to_hex (Digest.file Sys.executable_name) in
  let path = Filename.concat work_dir (Printf.sprintf "det-%s-%s" workload exe) in
  let text = String.concat "" (List.map (fun (k, v) -> k ^ " " ^ v ^ "\n") values) in
  if Sys.file_exists path then begin
    let recorded = In_channel.with_open_bin path In_channel.input_all in
    if recorded <> text then
      Printf.eprintf "determinism: outputs differ from the first run of this build (%s)\n"
        path;
    recorded = text
  end
  else begin
    let tmp = Printf.sprintf "%s.%d" path (Unix.getpid ()) in
    Out_channel.with_open_bin tmp (fun oc -> output_string oc text);
    Sys.rename tmp path;
    true
  end

type metric = { name : string; value : float; unit : string }

let m name unit value = { name; value; unit }

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
}

let print_result o =
  let num v =
    if not (Float.is_finite v) then "null"
    else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
    else Printf.sprintf "%.17g" v
  in
  let metrics =
    List.map
      (fun x ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name (num x.value) x.unit)
      o.metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    o.correct o.attempted o.failed (String.concat ", " metrics)
