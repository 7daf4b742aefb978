(* The reference SIMT interpreter: a tree walk over the kernel IR with
   boxed [Eval] values, kept as the independent oracle the decoded
   executor ([Uu_gpusim.Warp]) is checked against. It shares nothing
   with that executor but the memory model, the deferred atomics, the
   sinks, and the grid walk of [Kernel.grid_walk]. *)

open Uu_ir
open Uu_support
open Uu_gpusim

(* --- code layout ----------------------------------------------------- *)

type layout = {
  extents : (Value.label, int * int) Hashtbl.t;
  total : int;
  line_bytes : int;
}

let layout (device : Device.t) f =
  let extents = Hashtbl.create 32 in
  let addr = ref 0 in
  let place l =
    let b = Func.block f l in
    let count = List.length b.Block.phis + List.length b.Block.instrs + 1 in
    let bytes = count * device.Device.instr_bytes in
    Hashtbl.replace extents l (!addr, bytes);
    addr := !addr + bytes
  in
  List.iter place (Cfg.reverse_postorder f);
  (* Unreachable blocks still occupy space until cleaned up. *)
  Func.iter_blocks
    (fun b -> if not (Hashtbl.mem extents b.Block.label) then place b.Block.label)
    f;
  { extents; total = !addr; line_bytes = device.Device.icache_line_bytes }

let code_bytes t = t.total

(* Fetch a block's lines; returns the number of missed lines. *)
let touch_block icache t l =
  match Hashtbl.find_opt t.extents l with
  | None | Some (_, 0) -> 0
  | Some (start, bytes) ->
    let misses = ref 0 in
    for line = start / t.line_bytes to (start + bytes - 1) / t.line_bytes do
      if Cache.touch icache line then incr misses
    done;
    !misses

(* --- the warp -------------------------------------------------------- *)

(* Launch-wide state, immutable during the grid walk (or, for [mem],
   written at block-disjoint cells), plus the shard-private sinks, fresh
   per shard. All mutable per-block state — the per-SM L1 model, icache
   residency, the noise stream — is passed to [make] per block. *)
type launch_env = {
  device : Device.t;
  fn : Func.t;
  mem : Memory.t;
  layout : layout;
  ipdom : Value.label -> Value.label option;
  args : (Value.var * Eval.rvalue) list;
  block_dim : int;
  grid_dim : int;
  max_warp_cycles : int;
  tracer : Trace.t option;  (* shard-private event buffer *)
  races : Racecheck.t option;  (* shard-private write-overlap collector *)
  atomics : Atomics.t;  (* shard-private deferred-commit atomics view *)
}

type entry = {
  mutable block : Value.label;
  mutable mask : Mask.t;
  rpc : Value.label option;
}

let default_of_ty = function
  | Types.F64 -> Eval.Float 0.0
  | Types.I1 | Types.I32 | Types.I64 -> Eval.Int 0L
  | Types.Ptr _ -> Eval.Ptr { buffer = -1; offset = 0 }
  | Types.Void -> Eval.Int 0L

let make env ~smem ~dcache ~icache ~noise ~block_id ~warp_id ~lanes =
  let d = env.device in
  let fn = env.fn in
  let m = Metrics.create () in
  m.Metrics.warps_launched <- 1;
  let nvars = fn.Func.next_var in
  let regs = Array.init d.Device.warp_size (fun _ -> Array.make nvars (Eval.Int 0L)) in
  List.iter
    (fun (v, value) -> Array.iter (fun r -> r.(v) <- value) regs)
    env.args;
  let prev = Array.make d.Device.warp_size (-1) in
  let retired = ref Mask.empty in
  (* Per-warp memory jitter factor, the source of run-to-run variance.
     [noise] is the block's private stream and the launcher creates a
     block's warps in ascending warp order, so the draw sequence is a
     function of (block, warp) alone, not of grid execution order. *)
  let mem_factor =
    match noise with
    | Some rng -> Float.max 0.5 (Rng.gaussian rng ~mean:1.0 ~stddev:0.03)
    | None -> 1.0
  in
  let mem_cost transactions =
    int_of_float
      (Float.round
         (mem_factor *. float_of_int (d.Device.mem_transaction_cost * transactions)))
  in
  let eval lane v =
    match v with
    | Value.Var x -> regs.(lane).(x)
    | Value.Imm_int (n, ty) -> Eval.Int (Eval.normalize ty n)
    | Value.Imm_float x -> Eval.Float x
    | Value.Undef ty -> default_of_ty ty
  in
  let charge ?(misc = 0) ?(control = 0) ?(memory = 0) ~cycles ~active () =
    m.Metrics.cycles <- m.Metrics.cycles + cycles;
    m.Metrics.warp_instrs <- m.Metrics.warp_instrs + 1;
    m.Metrics.thread_instrs <- m.Metrics.thread_instrs + active;
    m.Metrics.active_lane_sum <- m.Metrics.active_lane_sum + active;
    m.Metrics.inst_misc <- m.Metrics.inst_misc + misc;
    m.Metrics.inst_control <- m.Metrics.inst_control + control;
    m.Metrics.inst_memory <- m.Metrics.inst_memory + memory
  in
  (* Distinct memory segments for the given per-lane pointers (in lane
     order), split into L1 hits and misses. Segments are classified in
     first-touching-lane order so the LRU touch sequence is deterministic
     (a hashtable fold here would make hit/miss counts depend on hash
     iteration order). The L1 key is [(buffer lsl 32) lor segment], the
     decoded executor's, so both share [Kernel.grid_walk]'s caches. *)
  let transactions_of ptrs =
    let seen = Hashtbl.create 8 in
    List.fold_left
      (fun (hits, misses) (buffer, offset) ->
        let esz = Memory.elt_size env.mem ~buffer_id:buffer in
        let seg = offset * esz / d.Device.transaction_bytes in
        let key = (buffer lsl 32) lor seg in
        if Hashtbl.mem seen key then (hits, misses)
        else begin
          Hashtbl.replace seen key ();
          if Cache.touch dcache key then (hits, misses + 1) else (hits + 1, misses)
        end)
      (0, 0) ptrs
  in
  (* Replay rounds for the shared pointers of one warp access: distinct
     (buffer, word) pairs count once (same-word lanes are a broadcast),
     and the access replays once per entry of the deepest bank queue.
     0 when the access touches no shared memory; order-independent. *)
  let shared_replays ptrs =
    match ptrs with
    | [] -> 0
    | _ ->
      let seen = Hashtbl.create 8 in
      let banks = Array.make d.Device.shared_banks 0 in
      let r = ref 0 in
      List.iter
        (fun (buffer, offset) ->
          let esz = Memory.shared_elt_size smem ~buffer_id:buffer in
          let word = offset * esz / d.Device.shared_bank_bytes in
          let key = (buffer, word) in
          if not (Hashtbl.mem seen key) then begin
            Hashtbl.replace seen key ();
            let bank = word mod d.Device.shared_banks in
            banks.(bank) <- banks.(bank) + 1;
            if banks.(bank) > !r then r := banks.(bank)
          end)
        ptrs;
      !r
  in
  let expect_ptr = function
    | Eval.Ptr { buffer; offset } -> (buffer, offset)
    | Eval.Int _ | Eval.Float _ -> failwith "simulator: address is not a pointer"
  in
  let live_streams = ref 1 in
  (* Barrier interval for the shared-race audit: block-global, set by
     the scheduler at each [step] to the number of barriers the block
     has released so far. *)
  let epoch = ref 0 in
  let exec_instr mask instr =
    let active = Mask.popcount mask in
    match instr with
    | Instr.Binop { dst; op; ty; lhs; rhs } ->
      Mask.iter
        (fun lane -> regs.(lane).(dst) <- Eval.binop op ty (eval lane lhs) (eval lane rhs))
        mask;
      let cycles =
        match op with
        | Instr.Sdiv | Instr.Udiv | Instr.Srem | Instr.Fdiv -> d.Device.div_cost
        | Instr.Fadd | Instr.Fsub | Instr.Fmul -> d.Device.fpu_cost
        | _ -> d.Device.alu_cost
      in
      charge ~cycles ~active ()
    | Instr.Cmp { dst; op; lhs; rhs; _ } ->
      Mask.iter
        (fun lane -> regs.(lane).(dst) <- Eval.cmp op (eval lane lhs) (eval lane rhs))
        mask;
      charge ~cycles:d.Device.alu_cost ~active ()
    | Instr.Unop { dst; op; src } ->
      Mask.iter (fun lane -> regs.(lane).(dst) <- Eval.unop op (eval lane src)) mask;
      charge ~cycles:d.Device.alu_cost ~active ()
    | Instr.Select { dst; cond; if_true; if_false; _ } ->
      Mask.iter
        (fun lane ->
          let c = eval lane cond in
          regs.(lane).(dst) <-
            (if Eval.is_true c then eval lane if_true else eval lane if_false))
        mask;
      (* selp-style predication: counted as a miscellaneous instruction,
         like the movs/selps of §V. *)
      charge ~misc:active ~cycles:d.Device.alu_cost ~active ()
    | Instr.Gep { dst; base; index; _ } ->
      Mask.iter
        (fun lane ->
          let buffer, offset = expect_ptr (eval lane base) in
          let idx =
            match eval lane index with
            | Eval.Int n -> Int64.to_int n
            | Eval.Float _ | Eval.Ptr _ -> failwith "simulator: gep index not an int"
          in
          regs.(lane).(dst) <- Eval.Ptr { buffer; offset = offset + idx })
        mask;
      charge ~cycles:d.Device.alu_cost ~active ()
    | Instr.Load { dst; ty; addr } ->
      let gptrs = ref [] and sptrs = ref [] and n_shared = ref 0 in
      Mask.iter
        (fun lane ->
          let buffer, offset = expect_ptr (eval lane addr) in
          if Memory.is_shared buffer then begin
            sptrs := (buffer, offset) :: !sptrs;
            incr n_shared;
            (match env.races with
            | Some r ->
              Racecheck.record_shared r ~block_id
                ~thread_id:((warp_id * d.Device.warp_size) + lane)
                ~slot:(-2 - buffer) ~offset ~epoch:!epoch ~write:false
            | None -> ());
            regs.(lane).(dst) <- Memory.shared_load smem ~buffer_id:buffer ~offset
          end
          else begin
            gptrs := (buffer, offset) :: !gptrs;
            regs.(lane).(dst) <- Memory.load env.mem ~buffer_id:buffer ~offset
          end)
        mask;
      let hits, misses = transactions_of (List.rev !gptrs) in
      let replays = shared_replays (List.rev !sptrs) in
      m.Metrics.mem_transactions <- m.Metrics.mem_transactions + hits + misses;
      m.Metrics.shared_transactions <- m.Metrics.shared_transactions + replays;
      if replays > 1 then
        m.Metrics.shared_bank_conflicts <-
          m.Metrics.shared_bank_conflicts + (replays - 1);
      m.Metrics.gld_bytes <-
        m.Metrics.gld_bytes + ((active - !n_shared) * Types.size_bytes ty);
      m.Metrics.sld_bytes <-
        m.Metrics.sld_bytes + (!n_shared * Types.size_bytes ty);
      (* Dependent-load latency: DRAM on any miss, L1 on any hit, shared
         pipe otherwise; hidden across the live divergent groups of this
         warp (Volta independent thread scheduling). *)
      let latency =
        if misses > 0 then d.Device.mem_dep_latency
        else if hits > 0 then d.Device.l1_hit_latency
        else d.Device.smem_latency
      in
      let exposed =
        if d.Device.its_latency_hiding then latency / max 1 !live_streams
        else latency
      in
      charge ~memory:active
        ~cycles:
          (d.Device.mem_issue_cost + (hits * d.Device.l1_hit_cost)
          + mem_cost misses
          + (replays * d.Device.smem_cost)
          + exposed)
        ~active ()
    | Instr.Store { ty; addr; value } ->
      let gptrs = ref [] and sptrs = ref [] and n_shared = ref 0 in
      Mask.iter
        (fun lane ->
          let buffer, offset = expect_ptr (eval lane addr) in
          if Memory.is_shared buffer then begin
            sptrs := (buffer, offset) :: !sptrs;
            incr n_shared;
            (match env.races with
            | Some r ->
              Racecheck.record_shared r ~block_id
                ~thread_id:((warp_id * d.Device.warp_size) + lane)
                ~slot:(-2 - buffer) ~offset ~epoch:!epoch ~write:true
            | None -> ());
            Memory.shared_store smem ~buffer_id:buffer ~offset (eval lane value)
          end
          else begin
            gptrs := (buffer, offset) :: !gptrs;
            Memory.store env.mem ~buffer_id:buffer ~offset (eval lane value)
          end)
        mask;
      (match env.races with
      | Some r ->
        List.iter
          (fun (buffer, offset) -> Racecheck.record r ~block_id ~buffer ~offset)
          !gptrs
      | None -> ());
      let hits, misses = transactions_of (List.rev !gptrs) in
      let replays = shared_replays (List.rev !sptrs) in
      m.Metrics.mem_transactions <- m.Metrics.mem_transactions + hits + misses;
      m.Metrics.shared_transactions <- m.Metrics.shared_transactions + replays;
      if replays > 1 then
        m.Metrics.shared_bank_conflicts <-
          m.Metrics.shared_bank_conflicts + (replays - 1);
      m.Metrics.gst_bytes <-
        m.Metrics.gst_bytes + ((active - !n_shared) * Types.size_bytes ty);
      m.Metrics.sst_bytes <-
        m.Metrics.sst_bytes + (!n_shared * Types.size_bytes ty);
      charge ~memory:active
        ~cycles:
          (d.Device.mem_issue_cost + (hits * d.Device.l1_hit_cost)
          + mem_cost misses
          + (replays * d.Device.smem_cost))
        ~active ()
    | Instr.Atomic_add { dst; addr; value; _ } ->
      (* Atomics serialize per lane. Shared-space atomics never touch the
         inter-block recorder: shared ids repeat across blocks. *)
      Mask.iter
        (fun lane ->
          let buffer, offset = expect_ptr (eval lane addr) in
          if Memory.is_shared buffer then begin
            (match env.races with
            | Some r ->
              Racecheck.record_shared r ~block_id
                ~thread_id:((warp_id * d.Device.warp_size) + lane)
                ~slot:(-2 - buffer) ~offset ~epoch:!epoch ~write:true
            | None -> ());
            regs.(lane).(dst) <-
              Memory.shared_atomic_add smem ~buffer_id:buffer ~offset
                (eval lane value)
          end
          else begin
            (match env.races with
            | Some r -> Racecheck.record_atomic r ~block_id ~buffer ~offset
            | None -> ());
            regs.(lane).(dst) <-
              Atomics.add env.atomics ~block_id ~buffer ~offset (eval lane value)
          end)
        mask;
      m.Metrics.mem_transactions <- m.Metrics.mem_transactions + active;
      charge ~memory:active ~cycles:(d.Device.atomic_cost * max 1 active) ~active ()
    | Instr.Intrinsic { dst; op; args } ->
      Mask.iter
        (fun lane ->
          regs.(lane).(dst) <- Eval.intrinsic op (List.map (eval lane) args))
        mask;
      charge ~cycles:d.Device.intrinsic_cost ~active ()
    | Instr.Special { dst; op } ->
      Mask.iter
        (fun lane ->
          let v =
            match op with
            | Instr.Thread_idx -> (warp_id * d.Device.warp_size) + lane
            | Instr.Block_idx -> block_id
            | Instr.Block_dim -> env.block_dim
            | Instr.Grid_dim -> env.grid_dim
          in
          regs.(lane).(dst) <- Eval.Int (Int64.of_int v))
        mask;
      charge ~cycles:d.Device.alu_cost ~active ()
    | Instr.Alloca { dst; ty } ->
      (* One cell per lane, so each lane gets a private slot. Arenas live
         in the block's shared bank: their ids are a pure function of
         (block, allocation index within the block), so they are
         identical at any shard width, and the bank drops them wholesale
         at the next block entry. *)
      let bid = Memory.bank_alloca smem ty d.Device.warp_size in
      Mask.iter
        (fun lane -> regs.(lane).(dst) <- Eval.Ptr { buffer = bid; offset = lane })
        mask;
      charge ~cycles:d.Device.alu_cost ~active ()
    | Instr.Syncthreads ->
      (* Intercepted by the block walker below, which suspends the warp
         at the barrier; reaching it here would bypass the scheduler. *)
      assert false
  in
  let exec_phis mask b =
    match b.Block.phis with
    | [] -> ()
    | phis ->
      (* Parallel evaluation: gather all new values before writing. *)
      let updates = ref [] in
      List.iter
        (fun (p : Instr.phi) ->
          Mask.iter
            (fun lane ->
              let pred = prev.(lane) in
              match List.assoc_opt pred p.incoming with
              | Some v -> updates := (lane, p.dst, eval lane v) :: !updates
              | None ->
                failwith
                  (Printf.sprintf
                     "simulator: phi in bb%d has no incoming for predecessor bb%d"
                     b.Block.label pred))
            mask;
          let active = Mask.popcount mask in
          charge ~misc:active ~cycles:d.Device.alu_cost ~active ())
        phis;
      List.iter (fun (lane, dst, v) -> regs.(lane).(dst) <- v) !updates
  in
  (* A __syncthreads() executed with a partial mask — some lanes of the
     warp retired or sit on the other side of a divergent branch — is the
     intra-warp form of the divergent-barrier error (the inter-warp form,
     a whole warp missing the barrier, is the scheduler's to detect). *)
  let exec_sync mask =
    if not (Mask.equal mask (Mask.full ~width:lanes)) then
      failwith
        (Printf.sprintf
           "simulator: divergent __syncthreads() in @%s: warp %d of block %d \
            hit the barrier with %d of %d lanes"
           fn.Func.name warp_id block_id (Mask.popcount mask) lanes);
    charge ~cycles:d.Device.sync_cost ~active:(Mask.popcount mask) ()
  in
  (* Walk a block's instruction tail; [Some rest] means the warp arrived
     at a barrier (already charged) with [rest] still to execute. *)
  let rec exec_instrs mask = function
    | [] -> None
    | Instr.Syncthreads :: rest ->
      exec_sync mask;
      Some rest
    | i :: rest ->
      exec_instr mask i;
      exec_instrs mask rest
  in
  let stack : entry list ref =
    ref [ { block = fn.Func.entry; mask = Mask.full ~width:lanes; rpc = None } ]
  in
  let set_prev mask cur = Mask.iter (fun lane -> prev.(lane) <- cur) mask in
  let pop () = match !stack with [] -> () | _ :: rest -> stack := rest in
  let push e = stack := e :: !stack in
  (* Instructions left in the current block when the warp suspended at a
     barrier — the resume point. The rest of the live state (registers,
     [prev], [retired], the reconvergence stack) survives in this
     closure across suspensions. *)
  let pending = ref None in
  let step ~epoch:interval =
    epoch := interval;
    let status = ref None in
    while Option.is_none !status do
      match !stack with
      | [] -> status := Some Scheduler.Exited
      | top :: _ ->
        if m.Metrics.cycles > env.max_warp_cycles then
          failwith
            (Printf.sprintf
               "simulator: warp exceeded %d cycles in @%s (infinite loop?)"
               env.max_warp_cycles fn.Func.name);
        let mask = Mask.diff top.mask !retired in
        if Mask.is_empty mask then pop ()
        else if Some top.block = top.rpc then pop ()
        else begin
          live_streams := List.length !stack;
          let b = Func.block fn top.block in
          let instrs =
            match !pending with
            | Some rest ->
              (* Resuming mid-block: trace, fetch, and phis already
                 happened when the block was entered. *)
              pending := None;
              rest
            | None ->
              (match env.tracer with
              | Some t ->
                Trace.record t { Trace.block_id; warp_id; label = top.block; mask }
              | None -> ());
              let misses = touch_block icache env.layout top.block in
              if misses > 0 then begin
                let stall = misses * d.Device.fetch_miss_penalty in
                m.Metrics.cycles <- m.Metrics.cycles + stall;
                m.Metrics.fetch_stall_cycles <- m.Metrics.fetch_stall_cycles + stall
              end;
              exec_phis mask b;
              b.Block.instrs
          in
          match exec_instrs mask instrs with
          | Some rest ->
            pending := Some rest;
            status := Some Scheduler.Arrived
          | None -> (
            let cur = top.block in
            let active = Mask.popcount mask in
            match b.Block.term with
            | Instr.Ret _ ->
              charge ~control:active ~cycles:d.Device.branch_cost ~active ();
              retired := Mask.union !retired mask;
              pop ()
            | Instr.Unreachable ->
              failwith (Printf.sprintf "simulator: reached unreachable bb%d" cur)
            | Instr.Br target ->
              charge ~control:active ~cycles:d.Device.branch_cost ~active ();
              set_prev mask cur;
              if Some target = top.rpc then pop () else top.block <- target
            | Instr.Cond_br { cond; if_true; if_false } ->
              charge ~control:active ~cycles:d.Device.branch_cost ~active ();
              let m_t = ref Mask.empty in
              Mask.iter
                (fun lane ->
                  if Eval.is_true (eval lane cond) then m_t := Mask.add lane !m_t)
                mask;
              let m_t = !m_t in
              let m_f = Mask.diff mask m_t in
              set_prev mask cur;
              if Mask.is_empty m_f then begin
                if Some if_true = top.rpc then pop () else top.block <- if_true
              end
              else if Mask.is_empty m_t then begin
                if Some if_false = top.rpc then pop () else top.block <- if_false
              end
              else begin
                m.Metrics.divergent_branches <- m.Metrics.divergent_branches + 1;
                m.Metrics.cycles <- m.Metrics.cycles + d.Device.divergence_penalty;
                let r = env.ipdom cur in
                pop ();
                (match r with
                | Some rp -> push { block = rp; mask; rpc = top.rpc }
                | None -> ());
                let part_rpc = match r with Some _ -> r | None -> top.rpc in
                if Some if_false <> part_rpc then
                  push { block = if_false; mask = m_f; rpc = part_rpc };
                if Some if_true <> part_rpc then
                  push { block = if_true; mask = m_t; rpc = part_rpc }
              end)
        end
    done;
    Option.get !status
  in
  { Scheduler.step; metrics = m }
