open Uu_support
open Uu_ir

type t = { name : string; run : Func.t -> bool }

type report = {
  pass_times : (string * float) list;
  total_time : float;
  work : int;
  changed : bool;
  stats : (string * int) list;
}

type options = { verify : bool; remarks : Remark.sink option }

let default_options = { verify = true; remarks = None }

let unverified = { default_options with verify = false }

let verify_now f =
  Verifier.check_exn f;
  Uu_analysis.Ssa_check.check_exn f

let run_passes ~verify passes f =
  let changed = ref false in
  let times = ref [] in
  let work = ref 0 in
  let t_start = Unix.gettimeofday () in
  List.iter
    (fun pass ->
      let t0 = Unix.gettimeofday () in
      let c =
        try pass.run f
        with e ->
          failwith
            (Printf.sprintf "pass %s raised on @%s: %s" pass.name f.Func.name
               (Printexc.to_string e))
      in
      let dt = Unix.gettimeofday () -. t0 in
      times := (pass.name, dt) :: !times;
      (* Deterministic compile-cost metric: the instructions this pass
         just walked. Unlike the wall-clock times it is identical across
         machines, domains, and reruns, so downstream consumers (the
         harness's compile-time ratios) stay reproducible. *)
      work := !work + Func.instr_count f;
      if c then changed := true;
      if verify && c then
        try verify_now f
        with Failure msg ->
          failwith (Printf.sprintf "after pass %s: %s" pass.name msg))
    passes;
  (List.rev !times, Unix.gettimeofday () -. t_start, !work, !changed)

let exec ?(options = default_options) passes f =
  let before = Statistic.snapshot () in
  let body () = run_passes ~verify:options.verify passes f in
  let pass_times, total_time, work, changed =
    match options.remarks with Some sink -> Remark.with_sink sink body | None -> body ()
  in
  {
    pass_times;
    total_time;
    work;
    changed;
    stats = Statistic.diff ~before ~after:(Statistic.snapshot ());
  }

let fixpoint ?(max_rounds = 8) name passes =
  let run f =
    let rec go round any =
      if round >= max_rounds then any
      else begin
        let r = exec ~options:unverified passes f in
        if r.changed then go (round + 1) true else any
      end
    in
    go 0 false
  in
  { name; run }
