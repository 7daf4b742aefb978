open Uu_gpusim

type exec =
  ?config:Kernel.launch_config ->
  Memory.t ->
  Uu_ir.Func.t ->
  grid_dim:int ->
  block_dim:int ->
  args:Kernel.arg list ->
  Kernel.result

let exec ?(config = Kernel.default_config) mem fn ~grid_dim ~block_dim ~args =
  let bound = Kernel.bind_args fn args in
  let device = config.Kernel.device in
  let layout = Ref_warp.layout device fn in
  let post = Uu_analysis.Dominance.compute_post fn in
  let ipdom l = Uu_analysis.Dominance.idom post l in
  Kernel.grid_walk config mem fn ~grid_dim ~block_dim
    ~code_bytes:(Ref_warp.code_bytes layout) (fun sinks ->
      let env =
        {
          Ref_warp.device;
          fn;
          mem;
          layout;
          ipdom;
          args = bound;
          block_dim;
          grid_dim;
          max_warp_cycles = config.Kernel.max_warp_cycles;
          tracer = sinks.Kernel.s_tracer;
          races = sinks.Kernel.s_races;
          atomics = sinks.Kernel.s_atomics;
        }
      in
      Ref_warp.make env)

let engines : (string * exec) list =
  [ ("reference", exec); ("decoded", Kernel.exec) ]
