open Emsc_arith
open Emsc_ir

type entry = {
  data : float array;
  entry_dims : int array;
  base : int;
  phantom : bool;
}

(* A scratchpad buffer: an open-addressing hash table keyed by index
   tuples stored inline ([rank] ints per slot), so a lookup hashes and
   compares the caller's index array without allocating.  The rank is
   fixed by the first write. *)
type cells = {
  mutable rank : int;  (* -1 until the first write *)
  mutable keys : int array;  (* [cap * rank] *)
  mutable vals : float array;
  mutable used : Bytes.t;
  mutable count : int;
}

let initial_cap = 64

let fresh_cells () =
  { rank = -1; keys = [||]; vals = Array.make initial_cap 0.0;
    used = Bytes.make initial_cap '\000'; count = 0 }

let hash_idx (idx : int array) =
  let h = ref 0 in
  for k = 0 to Array.length idx - 1 do
    h := (!h * 0x2545F491) + Array.unsafe_get idx k
  done;
  let h = !h lxor (!h lsr 29) in
  h * 0x9E3779B1

let rec same_key keys base (idx : int array) k r =
  k = r
  || (Array.unsafe_get keys (base + k) = Array.unsafe_get idx k
      && same_key keys base idx (k + 1) r)

(* slot holding [idx], or the free slot where it would go *)
let rec probe c idx i =
  if Bytes.unsafe_get c.used i = '\000' then i
  else if same_key c.keys (i * c.rank) idx 0 c.rank then i
  else probe c idx ((i + 1) land (Bytes.length c.used - 1))

let find_slot c (idx : int array) =
  probe c idx (hash_idx idx land (Bytes.length c.used - 1))

(* the slot of [idx], inserted (holding 0.) when absent *)
let rec cells_slot name c (idx : int array) =
  if c.rank < 0 then begin
    c.rank <- Array.length idx;
    if Array.length c.keys <> Bytes.length c.used * c.rank then
      c.keys <- Array.make (Bytes.length c.used * c.rank) 0
  end
  else if Array.length idx <> c.rank then
    invalid_arg ("Memory: rank mismatch on local buffer " ^ name);
  let i = find_slot c idx in
  if Bytes.unsafe_get c.used i <> '\000' then i
  else if 2 * (c.count + 1) > Bytes.length c.used then begin
    grow c;
    cells_slot name c idx
  end
  else begin
    Bytes.unsafe_set c.used i '\001';
    Array.blit idx 0 c.keys (i * c.rank) c.rank;
    c.vals.(i) <- 0.0;
    c.count <- c.count + 1;
    i
  end

and grow c =
  let old_keys = c.keys and old_vals = c.vals and old_used = c.used in
  let cap = 2 * Bytes.length old_used in
  c.keys <- Array.make (cap * c.rank) 0;
  c.vals <- Array.make cap 0.0;
  c.used <- Bytes.make cap '\000';
  c.count <- 0;
  let key = Array.make c.rank 0 in
  Bytes.iteri (fun i u ->
    if u <> '\000' then begin
      Array.blit old_keys (i * c.rank) key 0 c.rank;
      c.vals.(cells_slot "" c key) <- old_vals.(i)
    end)
    old_used

(* the slot of [idx], or -1 when the cell was never written *)
let cells_find c (idx : int array) =
  if c.count = 0 || Array.length idx <> c.rank then -1
  else begin
    let i = find_slot c idx in
    if Bytes.unsafe_get c.used i <> '\000' then i else -1
  end

(* capacity survives, so a recycled view does not grow again *)
let cells_clear c =
  Bytes.fill c.used 0 (Bytes.length c.used) '\000';
  c.rank <- -1;
  c.count <- 0

type t = {
  globals : (string, entry) Hashtbl.t;
  locals : (string, cells) Hashtbl.t;
}

let eval_extent env (row : Emsc_linalg.Vec.t) params =
  let np = Array.length params in
  let acc = ref row.(np) in
  for k = 0 to np - 1 do
    if not (Zint.is_zero row.(k)) then
      acc := Zint.add !acc (Zint.mul row.(k) (env params.(k)))
  done;
  Zint.to_int_exn !acc

let create_gen ~phantom (p : Prog.t) ~param_env =
  let globals = Hashtbl.create 8 in
  let next_base = ref 0 in
  List.iter (fun (d : Prog.array_decl) ->
    let dims =
      Array.map (fun row -> eval_extent param_env row p.Prog.params) d.Prog.extents
    in
    let total = Array.fold_left ( * ) 1 dims in
    if total < 0 then
      invalid_arg ("Memory.create: negative extent for " ^ d.Prog.array_name);
    Hashtbl.replace globals d.Prog.array_name
      { data = Array.make (if phantom then 1 else max total 1) 0.0;
        entry_dims = dims; base = !next_base; phantom };
    (* pad bases to distinct 4 KB-aligned regions *)
    next_base := !next_base + ((total + 1023) / 1024 * 1024))
    p.Prog.arrays;
  { globals; locals = Hashtbl.create 8 }

let create p ~param_env = create_gen ~phantom:false p ~param_env
let create_phantom p ~param_env = create_gen ~phantom:true p ~param_env

let declare_local m name =
  if not (Hashtbl.mem m.locals name) then
    Hashtbl.replace m.locals name (fresh_cells ())

let is_local m name = Hashtbl.mem m.locals name

let entry m name =
  match Hashtbl.find_opt m.globals name with
  | Some e -> e
  | None -> invalid_arg ("Memory: unknown global array " ^ name)

let flat_of e name idx =
  let n = Array.length e.entry_dims in
  if Array.length idx <> n then
    invalid_arg ("Memory: rank mismatch on " ^ name);
  let flat = ref 0 in
  for k = 0 to n - 1 do
    if idx.(k) < 0 || idx.(k) >= e.entry_dims.(k) then
      invalid_arg
        (Printf.sprintf "Memory: %s index %d out of bounds [0,%d) at dim %d"
           name idx.(k) e.entry_dims.(k) k);
    flat := (!flat * e.entry_dims.(k)) + idx.(k)
  done;
  !flat

let flat_index m name idx = flat_of (entry m name) name idx

let base_address m name = (entry m name).base

let read_global m name idx =
  let e = entry m name in
  if e.phantom then e.data.(0) else e.data.(flat_of e name idx)

let write_global m name idx v =
  let e = entry m name in
  if e.phantom then e.data.(0) <- v
  else e.data.(flat_of e name idx) <- v

let local m name =
  match Hashtbl.find_opt m.locals name with
  | Some t -> t
  | None -> invalid_arg ("Memory: unknown local buffer " ^ name)

let read_local m name idx =
  let c = local m name in
  let i = cells_find c idx in
  if i < 0 then 0.0 else c.vals.(i)

let write_local m name idx v =
  let c = local m name in
  c.vals.(cells_slot name c idx) <- v

type buf =
  | Global of string * entry
  | Local of string * cells
  | Missing of string  (* unknown global: fails on first access *)

let global_buf m name =
  match Hashtbl.find_opt m.globals name with
  | Some e -> Global (name, e)
  | None -> Missing name

let buf m name =
  match Hashtbl.find_opt m.locals name with
  | Some c -> Local (name, c)
  | None -> global_buf m name

let buf_is_local = function Local _ -> true | Global _ | Missing _ -> false

let unknown name = invalid_arg ("Memory: unknown global array " ^ name)

let buf_load b idx (dst : float array) k =
  match b with
  | Global (name, e) ->
    dst.(k) <- (if e.phantom then e.data.(0) else e.data.(flat_of e name idx))
  | Local (_, c) ->
    let i = cells_find c idx in
    dst.(k) <- (if i < 0 then 0.0 else c.vals.(i))
  | Missing name -> unknown name

let buf_store b idx (src : float array) k =
  match b with
  | Global (name, e) ->
    if e.phantom then e.data.(0) <- src.(k) else e.data.(flat_of e name idx) <- src.(k)
  | Local (name, c) -> c.vals.(cells_slot name c idx) <- src.(k)
  | Missing name -> unknown name

let buf_address b idx =
  match b with
  | Global (name, e) -> e.base + flat_of e name idx
  | Local (name, _) | Missing name -> unknown name

let global_data m name = (entry m name).data
let dims m name = (entry m name).entry_dims

let fork_view m =
  (* Globals are shared physically: the table itself is never mutated
     after creation, only the [data] arrays inside the entries, so
     concurrent views may read and write disjoint cells safely.  Locals
     are private to the view: same declared names, fresh storage. *)
  let locals = Hashtbl.create (max 8 (Hashtbl.length m.locals)) in
  Hashtbl.iter (fun name _ -> Hashtbl.replace locals name (fresh_cells ()))
    m.locals;
  { globals = m.globals; locals }

let local_names m =
  Hashtbl.fold (fun name _ acc -> name :: acc) m.locals []
  |> List.sort compare

let clear_locals m =
  Hashtbl.iter (fun _ cells -> cells_clear cells) m.locals

let local_words m =
  Hashtbl.fold (fun _ cells acc -> acc + cells.count) m.locals 0

let local_occupancy m =
  Hashtbl.fold (fun name cells acc -> (name, cells.count) :: acc)
    m.locals []
  |> List.sort compare

let fill m name f =
  let e = entry m name in
  let n = Array.length e.entry_dims in
  let idx = Array.make n 0 in
  let rec go k flat =
    if k = n then e.data.(flat) <- f idx
    else
      for v = 0 to e.entry_dims.(k) - 1 do
        idx.(k) <- v;
        go (k + 1) ((flat * e.entry_dims.(k)) + v)
      done
  in
  if Array.fold_left ( * ) 1 e.entry_dims > 0 then go 0 0

let arrays_equal ?(eps = 1e-6) a b name =
  let da = global_data a name and db = global_data b name in
  Array.length da = Array.length db
  && begin
    let ok = ref true in
    Array.iteri (fun i v ->
      if Float.abs (v -. db.(i)) > eps *. (1.0 +. Float.abs v) then ok := false)
      da;
    !ok
  end
