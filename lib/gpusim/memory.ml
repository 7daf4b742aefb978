open Uu_ir

(* Buffers store their elements unboxed, selected by element type: floats
   in a flat [float array], integers as native [int]s (the simulator's
   integer values are 63-bit; see the fit check in [storei]), pointers as
   parallel buffer/offset arrays. This keeps kernel-side loads and stores
   allocation-free for the simulator, and makes host-side workload
   setup a plain array copy instead of an element-wise boxing map. *)
type payload =
  | F of float array
  | I of int array
  | P of { pbuf : int array; poff : int array }

type buffer = { id : int; elt : Types.t; esz : int; payload : payload }

(* Buffer ids are allocated densely from 0, so the id -> buffer table is a
   growable array rather than a hashtable: [find] on the load/store path
   is a bounds check and an array read. *)
type t = {
  mutable buffers : buffer option array;
  mutable next_id : int;
  mutable transferred : int;
}

let create () = { buffers = Array.make 16 None; next_id = 0; transferred = 0 }

let register t b =
  if t.next_id >= Array.length t.buffers then begin
    let grown = Array.make (2 * Array.length t.buffers) None in
    Array.blit t.buffers 0 grown 0 (Array.length t.buffers);
    t.buffers <- grown
  end;
  t.buffers.(b.id) <- Some b;
  t.next_id <- t.next_id + 1

let payload_len = function
  | F a -> Array.length a
  | I a -> Array.length a
  | P { pbuf; _ } -> Array.length pbuf

let int_fits v = Int64.of_int (Int64.to_int v) = v

let fit v =
  if int_fits v then Int64.to_int v
  else
    failwith
      (Printf.sprintf
         "simulated memory: integer %Ld does not fit the simulator's 63-bit \
          storage"
         v)

let alloc t elt payload =
  let b = { id = t.next_id; elt; esz = Types.size_bytes elt; payload } in
  register t b;
  t.transferred <- t.transferred + (payload_len payload * b.esz);
  b

let alloc_f64 t host = alloc t Types.F64 (F (Array.copy host))
let alloc_i64 t host = alloc t Types.I64 (I (Array.map fit host))
let zeros_f64 t n = alloc t Types.F64 (F (Array.make n 0.0))
let zeros_i64 t n = alloc t Types.I64 (I (Array.make n 0))

let buffer_id b = b.id
let buffer_len b = payload_len b.payload
let buffer_elt b = b.elt

let find t id =
  if id >= 0 && id < t.next_id then
    match t.buffers.(id) with Some b -> b | None -> assert false
  else failwith (Printf.sprintf "simulated memory: unknown buffer %d" id)

let read_f64 b =
  match b.payload with
  | F a -> Array.copy a
  | I _ | P _ -> invalid_arg "Memory.read_f64: not an f64 buffer"

let read_i64 b =
  match b.payload with
  | I a -> Array.map Int64.of_int a
  | F _ | P _ -> invalid_arg "Memory.read_i64: not an i64 buffer"

let bytes_moved t = t.transferred

let check b offset =
  if offset < 0 || offset >= payload_len b.payload then
    failwith
      (Printf.sprintf "simulated memory: buffer %d access out of bounds (%d of %d)"
         b.id offset (payload_len b.payload))

let type_confusion b what =
  failwith
    (Printf.sprintf "simulated memory: buffer %d holds %s, accessed as %s" b.id
       (Types.to_string b.elt) what)

let load t ~buffer_id ~offset =
  let b = find t buffer_id in
  check b offset;
  match b.payload with
  | F a -> Eval.Float a.(offset)
  | I a -> Eval.Int (Int64.of_int a.(offset))
  | P { pbuf; poff } -> Eval.Ptr { buffer = pbuf.(offset); offset = poff.(offset) }

let store t ~buffer_id ~offset v =
  let b = find t buffer_id in
  check b offset;
  match b.payload, v with
  | F a, Eval.Float x -> a.(offset) <- x
  | I a, Eval.Int x -> a.(offset) <- fit x
  | P { pbuf; poff }, Eval.Ptr p ->
    pbuf.(offset) <- p.buffer;
    poff.(offset) <- p.offset
  | F _, (Eval.Int _ | Eval.Ptr _) -> type_confusion b "a non-float"
  | I _, (Eval.Float _ | Eval.Ptr _) -> type_confusion b "a non-integer"
  | P _, (Eval.Float _ | Eval.Int _) -> type_confusion b "a non-pointer"

let atomic_add t ~buffer_id ~offset v =
  let b = find t buffer_id in
  check b offset;
  match b.payload, v with
  | I a, Eval.Int x ->
    let old = a.(offset) in
    a.(offset) <- old + fit x;
    Eval.Int (Int64.of_int old)
  | F a, Eval.Float x ->
    let old = a.(offset) in
    a.(offset) <- old +. x;
    Eval.Float old
  | _, _ -> failwith "simulated memory: atomic_add type mismatch"

(* Non-mutating counterparts of [atomic_addi]/[atomic_addf], with the
   same bounds and type checks: the deferred-commit atomics collector
   ([Atomics]) reads a cell's pristine value once per shard and applies
   the accumulated deltas only after the shard join. *)

let atomic_readi t ~buffer_id ~offset =
  let b = find t buffer_id in
  check b offset;
  match b.payload with
  | I a -> a.(offset)
  | F _ | P _ -> failwith "simulated memory: atomic_add type mismatch"

let atomic_readf t ~buffer_id ~offset =
  let b = find t buffer_id in
  check b offset;
  match b.payload with
  | F a -> a.(offset)
  | I _ | P _ -> failwith "simulated memory: atomic_add type mismatch"

let elt_size t ~buffer_id = (find t buffer_id).esz

(* Allocation-free accessors for the simulator. *)

let fdata t ~buffer_id =
  let b = find t buffer_id in
  match b.payload with
  | F a -> a
  | I _ | P _ -> type_confusion b "a float"

let loadi t ~buffer_id ~offset =
  let b = find t buffer_id in
  check b offset;
  match b.payload with
  | I a -> a.(offset)
  | F _ | P _ -> type_confusion b "an integer"

let loadp t ~buffer_id ~offset =
  let b = find t buffer_id in
  check b offset;
  match b.payload with
  | P { pbuf; poff } -> (pbuf.(offset), poff.(offset))
  | F _ | I _ -> type_confusion b "a pointer"

let storei t ~buffer_id ~offset x =
  let b = find t buffer_id in
  check b offset;
  match b.payload with
  | I a -> a.(offset) <- x
  | F _ | P _ -> type_confusion b "an integer"

let storep t ~buffer_id ~offset ~pbuffer ~poffset =
  let b = find t buffer_id in
  check b offset;
  match b.payload with
  | P { pbuf; poff } ->
    pbuf.(offset) <- pbuffer;
    poff.(offset) <- poffset
  | F _ | I _ -> type_confusion b "a pointer"

let atomic_addi t ~buffer_id ~offset x =
  let b = find t buffer_id in
  check b offset;
  match b.payload with
  | I a ->
    let old = a.(offset) in
    a.(offset) <- old + x;
    old
  | F _ | P _ -> failwith "simulated memory: atomic_add type mismatch"

let atomic_addf t ~buffer_id ~offset x =
  let b = find t buffer_id in
  check b offset;
  match b.payload with
  | F a ->
    let old = a.(offset) in
    a.(offset) <- old +. x;
    old
  | I _ | P _ -> failwith "simulated memory: atomic_add type mismatch"

(* Block-scoped shared memory.

   Shared arrays live in their own bank, addressed by negative buffer
   ids: slot [k] is buffer [-2 - k] (id -1 stays the null/undef pointer,
   so [is_shared] is a single compare). The first [decls] slots are the
   kernel's [__shared__] declarations; slots appended after them are
   per-block [Alloca] arenas ([bank_alloca]). The bank is created once
   per simulation shard, and at every block entry the declaration slots
   are zeroed and the arenas dropped ([shared_reset]) — so an arena's id
   is a pure function of the block's own deterministic execution order,
   never of global allocation order, which keeps block-order sharding
   byte-identical for any [sim_jobs]. *)

type shared_bank = {
  mutable slots : buffer array;  (* declarations, then live arenas *)
  mutable n : int;               (* live slots: [decls] + arenas *)
  decls : int;
}

let is_shared id = id < -1

let shared_create decl_list =
  let slots =
    Array.of_list
      (List.mapi
         (fun k (elt, size) ->
           if size <= 0 then
             invalid_arg
               (Printf.sprintf "Memory.shared_create: non-positive size %d" size);
           let payload =
             match elt with
             | Types.F64 -> F (Array.make size 0.0)
             | Types.I64 -> I (Array.make size 0)
             | other ->
               invalid_arg
                 (Printf.sprintf
                    "Memory.shared_create: unbankable element type %s"
                    (Types.to_string other))
           in
           { id = -2 - k; elt; esz = Types.size_bytes elt; payload })
         decl_list)
  in
  let n = Array.length slots in
  { slots; n; decls = n }

let shared_reset bank =
  for k = 0 to bank.decls - 1 do
    match bank.slots.(k).payload with
    | F a -> Array.fill a 0 (Array.length a) 0.0
    | I a -> Array.fill a 0 (Array.length a) 0
    | P _ -> assert false
  done;
  bank.n <- bank.decls

let bank_alloca bank elt size =
  let payload =
    match elt with
    | Types.F64 -> F (Array.make size 0.0)
    | Types.I1 | Types.I32 | Types.I64 | Types.Void -> I (Array.make size 0)
    | Types.Ptr _ -> P { pbuf = Array.make size (-1); poff = Array.make size 0 }
  in
  let b = { id = -2 - bank.n; elt; esz = Types.size_bytes elt; payload } in
  if bank.n >= Array.length bank.slots then begin
    let cap = max 4 (2 * Array.length bank.slots) in
    let grown = Array.make cap b in
    Array.blit bank.slots 0 grown 0 bank.n;
    bank.slots <- grown
  end;
  bank.slots.(bank.n) <- b;
  bank.n <- bank.n + 1;
  b.id

let find_shared bank id =
  let k = -2 - id in
  if k >= 0 && k < bank.n then bank.slots.(k)
  else failwith (Printf.sprintf "simulated memory: unknown shared buffer %d" id)

let shared_load bank ~buffer_id ~offset =
  let b = find_shared bank buffer_id in
  check b offset;
  match b.payload with
  | F a -> Eval.Float a.(offset)
  | I a -> Eval.Int (Int64.of_int a.(offset))
  | P { pbuf; poff } -> Eval.Ptr { buffer = pbuf.(offset); offset = poff.(offset) }

let shared_store bank ~buffer_id ~offset v =
  let b = find_shared bank buffer_id in
  check b offset;
  match b.payload, v with
  | F a, Eval.Float x -> a.(offset) <- x
  | I a, Eval.Int x -> a.(offset) <- fit x
  | P { pbuf; poff }, Eval.Ptr p ->
    pbuf.(offset) <- p.buffer;
    poff.(offset) <- p.offset
  | F _, (Eval.Int _ | Eval.Ptr _) -> type_confusion b "a non-float"
  | I _, (Eval.Float _ | Eval.Ptr _) -> type_confusion b "a non-integer"
  | P _, (Eval.Float _ | Eval.Int _) -> type_confusion b "a non-pointer"

let shared_atomic_add bank ~buffer_id ~offset v =
  let b = find_shared bank buffer_id in
  check b offset;
  match b.payload, v with
  | I a, Eval.Int x ->
    let old = a.(offset) in
    a.(offset) <- old + fit x;
    Eval.Int (Int64.of_int old)
  | F a, Eval.Float x ->
    let old = a.(offset) in
    a.(offset) <- old +. x;
    Eval.Float old
  | _, _ -> failwith "simulated memory: atomic_add type mismatch"

let shared_elt_size bank ~buffer_id = (find_shared bank buffer_id).esz

let shared_fdata bank ~buffer_id =
  let b = find_shared bank buffer_id in
  match b.payload with
  | F a -> a
  | I _ | P _ -> type_confusion b "a float"

let shared_loadi bank ~buffer_id ~offset =
  let b = find_shared bank buffer_id in
  check b offset;
  match b.payload with
  | I a -> a.(offset)
  | F _ | P _ -> type_confusion b "an integer"

let shared_storei bank ~buffer_id ~offset x =
  let b = find_shared bank buffer_id in
  check b offset;
  match b.payload with
  | I a -> a.(offset) <- x
  | F _ | P _ -> type_confusion b "an integer"

let shared_loadp bank ~buffer_id ~offset =
  let b = find_shared bank buffer_id in
  check b offset;
  match b.payload with
  | P { pbuf; poff } -> (pbuf.(offset), poff.(offset))
  | F _ | I _ -> type_confusion b "a pointer"

let shared_storep bank ~buffer_id ~offset ~pbuffer ~poffset =
  let b = find_shared bank buffer_id in
  check b offset;
  match b.payload with
  | P { pbuf; poff } ->
    pbuf.(offset) <- pbuffer;
    poff.(offset) <- poffset
  | F _ | I _ -> type_confusion b "a pointer"

let shared_atomic_addi bank ~buffer_id ~offset x =
  let b = find_shared bank buffer_id in
  check b offset;
  match b.payload with
  | I a ->
    let old = a.(offset) in
    a.(offset) <- old + x;
    old
  | F _ | P _ -> failwith "simulated memory: atomic_add type mismatch"

let shared_atomic_addf bank ~buffer_id ~offset x =
  let b = find_shared bank buffer_id in
  check b offset;
  match b.payload with
  | F a ->
    let old = a.(offset) in
    a.(offset) <- old +. x;
    old
  | I _ | P _ -> failwith "simulated memory: atomic_add type mismatch"

let dump t =
  List.init t.next_id (fun id ->
      let b = find t id in
      let data =
        match b.payload with
        | F a -> Array.map (fun x -> Eval.Float x) a
        | I a -> Array.map (fun x -> Eval.Int (Int64.of_int x)) a
        | P { pbuf; poff } ->
          Array.init (Array.length pbuf) (fun i ->
              Eval.Ptr { buffer = pbuf.(i); offset = poff.(i) })
      in
      (id, data))
