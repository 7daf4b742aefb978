(** Code layout and instruction cache.

    Blocks are laid out linearly in reverse postorder (unreachable blocks
    after them), [instr_bytes] per instruction (phis and the terminator
    included); {!Decode} bakes each block's first and last icache line.
    The LRU instruction cache charges [fetch_miss_penalty] per missed
    line when a warp enters a block — the mechanism by which heavily
    duplicated loops (u&u with large factors) lose performance to fetch
    stalls, as the paper observes for [complex] and [haccmk] (§V). *)

type icache = int Cache.t
(** LRU over line addresses. *)

val icache_create : Device.t -> icache
