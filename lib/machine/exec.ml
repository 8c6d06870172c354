open Emsc_arith
open Emsc_ir
open Emsc_codegen

type counters = {
  mutable flops : float;
  mutable g_ld : float;
  mutable g_st : float;
  mutable s_ld : float;
  mutable s_st : float;
  mutable syncs : float;
  mutable fences : float;
}

let fresh () =
  { flops = 0.; g_ld = 0.; g_st = 0.; s_ld = 0.; s_st = 0.; syncs = 0.;
    fences = 0. }

let copy_counters c =
  { flops = c.flops; g_ld = c.g_ld; g_st = c.g_st; s_ld = c.s_ld;
    s_st = c.s_st; syncs = c.syncs; fences = c.fences }

let sub_counters a b =
  { flops = a.flops -. b.flops; g_ld = a.g_ld -. b.g_ld;
    g_st = a.g_st -. b.g_st; s_ld = a.s_ld -. b.s_ld;
    s_st = a.s_st -. b.s_st; syncs = a.syncs -. b.syncs;
    fences = a.fences -. b.fences }

let add_scaled dst d k =
  dst.flops <- dst.flops +. (d.flops *. k);
  dst.g_ld <- dst.g_ld +. (d.g_ld *. k);
  dst.g_st <- dst.g_st +. (d.g_st *. k);
  dst.s_ld <- dst.s_ld +. (d.s_ld *. k);
  dst.s_st <- dst.s_st +. (d.s_st *. k);
  dst.syncs <- dst.syncs +. (d.syncs *. k);
  dst.fences <- dst.fences +. (d.fences *. k)

let scale_counters c k =
  { flops = c.flops *. k; g_ld = c.g_ld *. k; g_st = c.g_st *. k;
    s_ld = c.s_ld *. k; s_st = c.s_st *. k; syncs = c.syncs *. k;
    fences = c.fences *. k }

let add_into src dst = add_scaled dst src 1.0

let total_global c = c.g_ld +. c.g_st
let total_smem c = c.s_ld +. c.s_st

let counters_json c =
  Emsc_obs.Json.Obj
    [ ("flops", Emsc_obs.Json.Float c.flops);
      ("global_loads", Emsc_obs.Json.Float c.g_ld);
      ("global_stores", Emsc_obs.Json.Float c.g_st);
      ("smem_loads", Emsc_obs.Json.Float c.s_ld);
      ("smem_stores", Emsc_obs.Json.Float c.s_st);
      ("syncs", Emsc_obs.Json.Float c.syncs);
      ("fences", Emsc_obs.Json.Float c.fences) ]

type launch = {
  grid : float;
  per_block : counters;
  repeat : float;  (* dynamic occurrences of this launch (sampling) *)
}

type result = {
  totals : counters;
  launches : launch list;
}

type mode = Full | Sampled of int

let rec expr_flops = function
  | Prog.Eref _ | Prog.Eiter _ | Prog.Eparam _ | Prog.Econst _ -> 0
  | Prog.Eneg e | Prog.Eabs e -> 1 + expr_flops e
  | Prog.Eadd (a, b) | Prog.Esub (a, b) | Prog.Emul (a, b)
  | Prog.Ediv (a, b) | Prog.Emin (a, b) | Prog.Emax (a, b) ->
    1 + expr_flops a + expr_flops b

type block_dma = {
  copies : float;
  moved_in : (string * float) list;
  moved_out : (string * float) list;
}

type block_outcome = {
  b_counters : counters;
  b_dma : block_dma;
}

(* ------------------------------------------------------------------ *)
(* Checked native-int arithmetic                                       *)

(* Raised by the fast path on overflow; every top-level evaluation then
   redoes the expression exactly in [Zint] and converts with
   [Zint.to_int_exn], so a value that fits is never lost and one that
   does not raises that function's [Failure] — nothing ever wraps. *)
exception Overflow

let add_c a b =
  let s = a + b in
  if (a lxor s) land (b lxor s) < 0 then raise_notrace Overflow else s

let sub_c a b =
  let s = a - b in
  if (a lxor b) land (a lxor s) < 0 then raise_notrace Overflow else s

let small x = x >= -0x4000_0000 && x <= 0x4000_0000

let mul_c a b =
  if small a && small b then a * b
  else if a = 0 || b = 0 then 0
  else begin
    let p = a * b in
    if p / b <> a || (a = min_int && b = -1) || (b = min_int && a = -1)
    then raise_notrace Overflow
    else p
  end

let fdiv_c a d =
  if d = -1 && a = min_int then raise_notrace Overflow;
  let q = a / d in
  if a mod d <> 0 && (a < 0) <> (d < 0) then q - 1 else q

let cdiv_c a d =
  if d = -1 && a = min_int then raise_notrace Overflow;
  let q = a / d in
  if a mod d <> 0 && (a < 0) = (d < 0) then q + 1 else q

let int_of_zint z =
  match Zint.to_int_opt z with Some n -> n | None -> raise_notrace Overflow

(* trip count of [lb..ub] by [step], as the interpreter defined it *)
let trip_count lb ub step =
  try add_c (fdiv_c (sub_c ub lb) step) 1
  with Overflow ->
    Zint.to_int_exn
      (Zint.add
         (Zint.fdiv (Zint.sub (Zint.of_int ub) (Zint.of_int lb)) (Zint.of_int step))
         Zint.one)

(* ------------------------------------------------------------------ *)
(* Frames and staged code                                              *)

(* Everything one execution mutates.  Staged code is immutable and may
   run on many domains at once, each with its own frame. *)
type frame = {
  v : int array;  (* variable slots *)
  bufs : Memory.buf array;  (* the staged code's arrays in this memory *)
  idx : int array array;  (* index scratch, one per rank *)
  f : float array;  (* float registers *)
  c : counters;
  mode : mode;
  hook : (string -> int -> [ `Ld | `St ] -> unit) option;  (* Full only *)
  collect_dma : bool;
  mutable dma_copies : float;
  dma_in : float array;  (* per buffer id *)
  dma_out : float array;
  mutable in_launch : bool;
  mutable launches : launch list;
}

type staged = {
  code : frame -> unit;
  n_inputs : int;
  n_slots : int;
  arrays : (string * bool) array;  (* name, always global *)
  max_rank : int;
  n_regs : int;
}

(* how a name not bound by a loop of the staged code resolves *)
type leaf = Slot of int | Value of Zint.t | Unbound of exn

type session = {
  s_prog : Prog.t;
  s_stmts : (int, Prog.stmt * float) Hashtbl.t;  (* with flops per instance *)
  s_rewrite : Prog.stmt -> Prog.access -> Ast.ref_expr option;
  s_param_env : string -> Zint.t;
  s_params : (string, leaf) Hashtbl.t;
  mutable s_staged : (string list * Ast.stm list * staged) list;
}

(* Staging state: slots are allocated like a stack (a scope's slots are
   reused by its siblings), arrays get dense ids. *)
type stager = {
  sess : session;
  mutable high : int;
  buf_ids : (string * bool, int) Hashtbl.t;
  mutable buf_list : (string * bool) list;  (* reverse id order *)
  mutable ranks : int;
  mutable regs : int;
  calls : (int * Ast.aexpr array * (string * int) list * int, frame -> unit) Hashtbl.t;
}

type scope = { vars : (string * int) list; next : int }

let bind st sc name =
  let k = sc.next in
  if k + 1 > st.high then st.high <- k + 1;
  ({ vars = (name, k) :: sc.vars; next = k + 1 }, k)

let resolve st sc name =
  match List.assoc_opt name sc.vars with
  | Some k -> Slot k
  | None -> (
    match Hashtbl.find_opt st.sess.s_params name with
    | Some l -> l
    | None ->
      let l =
        match st.sess.s_param_env name with
        | z -> Value z
        | exception e -> Unbound e
      in
      Hashtbl.replace st.sess.s_params name l;
      l)

let buf_id st key =
  match Hashtbl.find_opt st.buf_ids key with
  | Some i -> i
  | None ->
    let i = Hashtbl.length st.buf_ids in
    Hashtbl.replace st.buf_ids key i;
    st.buf_list <- key :: st.buf_list;
    i

(* statement iterators live in slots named so no source name clashes *)
let iter_name i = "#" ^ string_of_int i

(* --- index expressions ---------------------------------------------- *)

(* [Some (c, terms)] when [e] is affine in slots *)
let rec linear st sc (e : Ast.aexpr) =
  let scale k (c, ts) = (Zint.mul k c, List.map (fun (a, s) -> (Zint.mul k a, s)) ts) in
  let sum (c1, t1) (c2, t2) = (Zint.add c1 c2, t1 @ t2) in
  match e with
  | Ast.Var x -> (
    match resolve st sc x with
    | Slot k -> Some (Zint.zero, [ (Zint.one, k) ])
    | Value z -> Some (z, [])
    | Unbound _ -> None)
  | Ast.Const z -> Some (z, [])
  | Ast.Add (a, b) -> Option.bind (linear st sc a) (fun la -> Option.map (sum la) (linear st sc b))
  | Ast.Sub (a, b) ->
    Option.bind (linear st sc a) (fun la ->
      Option.map (fun lb -> sum la (scale Zint.minus_one lb)) (linear st sc b))
  | Ast.Mul (k, a) -> Option.map (scale k) (linear st sc a)
  | Ast.Fdiv _ | Ast.Cdiv _ | Ast.Min _ | Ast.Max _ -> None

(* the affine form with one zero-free term per slot *)
let affine st sc e =
  Option.map (fun (c, ts) ->
    let slots = List.sort_uniq compare (List.map snd ts) in
    ( c,
      List.filter_map (fun s ->
        let a =
          List.fold_left (fun acc (a, s') -> if s' = s then Zint.add acc a else acc) Zint.zero ts
        in
        if Zint.is_zero a then None else Some (a, s))
        slots ))
    (linear st sc e)

let compile_affine (c, ts) : int array -> int =
  let c = int_of_zint c and ts = List.map (fun (a, s) -> (int_of_zint a, s)) ts in
  match ts with
  | [] -> fun _ -> c
  | [ (a, k) ] -> fun v -> add_c (mul_c a (Array.unsafe_get v k)) c
  | [ (a, k); (b, l) ] ->
    fun v ->
      add_c (add_c (mul_c a (Array.unsafe_get v k)) (mul_c b (Array.unsafe_get v l))) c
  | _ ->
    let a = Array.of_list ts in
    fun v ->
      let acc = ref c in
      for i = 0 to Array.length a - 1 do
        let coef, k = Array.unsafe_get a i in
        acc := add_c !acc (mul_c coef (Array.unsafe_get v k))
      done;
      !acc

(* fast path: native ints, [Overflow] when a step does not fit *)
let rec fast st sc (e : Ast.aexpr) : int array -> int =
  match affine st sc e with
  | Some form -> (
    match compile_affine form with
    | f -> f
    | exception Overflow -> fun _ -> raise_notrace Overflow)
  | None -> (
    match e with
    | Ast.Var x -> (
      (* a name is affine unless it is unbound *)
      match resolve st sc x with
      | Unbound ex -> fun _ -> raise ex
      | Slot _ | Value _ -> assert false)
    | Ast.Const _ -> assert false
    | Ast.Add (a, b) ->
      let fa = fast st sc a and fb = fast st sc b in
      fun v -> add_c (fa v) (fb v)
    | Ast.Sub (a, b) ->
      let fa = fast st sc a and fb = fast st sc b in
      fun v -> sub_c (fa v) (fb v)
    | Ast.Mul (k, a) -> (
      let fa = fast st sc a in
      match Zint.to_int_opt k with
      | Some k -> fun v -> mul_c k (fa v)
      | None -> fun _ -> raise_notrace Overflow)
    | Ast.Fdiv (a, d) | Ast.Cdiv (a, d) -> (
      let fa = fast st sc a in
      let div = match e with Ast.Fdiv _ -> fdiv_c | _ -> cdiv_c in
      match Zint.to_int_opt d with
      | Some d -> fun v -> div (fa v) d
      | None -> fun _ -> raise_notrace Overflow)
    | Ast.Min [] | Ast.Max [] -> fun _ -> invalid_arg "Ast.eval: empty min/max"
    | Ast.Min (e0 :: es) | Ast.Max (e0 :: es) ->
      let pick = match e with Ast.Min _ -> Int.min | _ -> Int.max in
      let f0 = fast st sc e0 and fs = Array.of_list (List.map (fast st sc) es) in
      fun v ->
        let acc = ref (f0 v) in
        for i = 0 to Array.length fs - 1 do
          acc := pick !acc ((Array.unsafe_get fs i) v)
        done;
        !acc)

(* exact path, for when the fast one overflows *)
let slow st sc (e : Ast.aexpr) : int array -> Zint.t =
  let rec free acc = function
    | Ast.Var x ->
      if List.mem_assoc x sc.vars || List.mem_assoc x acc then acc
      else (x, resolve st sc x) :: acc
    | Ast.Const _ -> acc
    | Ast.Add (a, b) | Ast.Sub (a, b) -> free (free acc a) b
    | Ast.Mul (_, a) | Ast.Fdiv (a, _) | Ast.Cdiv (a, _) -> free acc a
    | Ast.Min es | Ast.Max es -> List.fold_left free acc es
  in
  let params = free [] e in
  fun v ->
    Ast.eval (fun x ->
      match List.assoc_opt x sc.vars with
      | Some k -> Zint.of_int v.(k)
      | None -> (
        match List.assoc x params with
        | Slot k -> Zint.of_int v.(k)
        | Value z -> z
        | Unbound ex -> raise ex))
      e

(* constants and plain variables cannot overflow: no exact path *)
let int_expr st sc e : int array -> int =
  match Option.map (fun (c, ts) -> (Zint.to_int_opt c, ts)) (affine st sc e) with
  | Some (Some c, []) -> fun _ -> c
  | Some (Some 0, [ (a, k) ]) when Zint.is_one a -> fun v -> Array.unsafe_get v k
  | _ ->
    let f = fast st sc e and s = slow st sc e in
    fun v -> try f v with Overflow -> Zint.to_int_exn (s v)

let cond_expr st sc e : int array -> bool =
  let f = fast st sc e and s = slow st sc e in
  fun v -> try f v >= 0 with Overflow -> not (Zint.is_negative (s v))

(* --- array accesses ------------------------------------------------- *)

(* Float values travel through the frame's register file [f], never
   boxed: an expression evaluates into register [d], its operands into
   [d] and [d + 1]. *)

let load_idx fr (ixs : (int array -> int) array) =
  let a = Array.unsafe_get fr.idx (Array.length ixs) in
  for k = 0 to Array.length ixs - 1 do
    Array.unsafe_set a k ((Array.unsafe_get ixs k) fr.v)
  done;
  a

let note_rank st n = if n > st.ranks then st.ranks <- n
let note_reg st d = if d + 1 > st.regs then st.regs <- d + 1

let on_global fr name b idx kind =
  match fr.hook with Some f -> f name (Memory.buf_address b idx) kind | None -> ()

(* a reference whose storage class (local or global) the memory
   decides: copies and rewritten statement accesses *)
let compile_ref st sc (r : Ast.ref_expr) =
  let id = buf_id st (r.Ast.array, false) in
  let ixs = Array.map (int_expr st sc) r.Ast.indices in
  note_rank st (Array.length ixs);
  (id, ixs)

let read_ref st sc (r : Ast.ref_expr) d =
  note_reg st d;
  let id, ixs = compile_ref st sc r in
  let name = r.Ast.array in
  fun fr ->
    let a = load_idx fr ixs in
    let b = Array.unsafe_get fr.bufs id in
    if Memory.buf_is_local b then fr.c.s_ld <- fr.c.s_ld +. 1.0
    else begin
      fr.c.g_ld <- fr.c.g_ld +. 1.0;
      on_global fr name b a `Ld
    end;
    Memory.buf_load b a fr.f d

let write_ref st sc (r : Ast.ref_expr) d =
  note_reg st d;
  let id, ixs = compile_ref st sc r in
  let name = r.Ast.array in
  fun fr ->
    let a = load_idx fr ixs in
    let b = Array.unsafe_get fr.bufs id in
    if Memory.buf_is_local b then fr.c.s_st <- fr.c.s_st +. 1.0
    else begin
      fr.c.g_st <- fr.c.g_st +. 1.0;
      on_global fr name b a `St
    end;
    Memory.buf_store b a fr.f d

(* a statement access no buffer redirects: always global, indexed by
   its access map over the statement iterators and parameters *)
let compile_access st sc (s : Prog.stmt) (a : Prog.access) =
  let prog = st.sess.s_prog in
  let depth = s.Prog.depth in
  let names i = if i < depth then iter_name i else prog.Prog.params.(i - depth) in
  let ixs =
    Array.map (fun row -> int_expr st sc (Ast.vec_to_aexpr ~names row)) a.Prog.map
  in
  note_rank st (Array.length ixs);
  (buf_id st (a.Prog.array, true), ixs)

let read_access st sc s (a : Prog.access) d =
  match st.sess.s_rewrite s a with
  | Some r -> read_ref st sc r d
  | None ->
    note_reg st d;
    let id, ixs = compile_access st sc s a in
    let name = a.Prog.array in
    fun fr ->
      let idx = load_idx fr ixs in
      let b = Array.unsafe_get fr.bufs id in
      fr.c.g_ld <- fr.c.g_ld +. 1.0;
      on_global fr name b idx `Ld;
      Memory.buf_load b idx fr.f d

let write_access st sc s (a : Prog.access) d =
  match st.sess.s_rewrite s a with
  | Some r -> write_ref st sc r d
  | None ->
    note_reg st d;
    let id, ixs = compile_access st sc s a in
    let name = a.Prog.array in
    fun fr ->
      let idx = load_idx fr ixs in
      let b = Array.unsafe_get fr.bufs id in
      fr.c.g_st <- fr.c.g_st +. 1.0;
      on_global fr name b idx `St;
      Memory.buf_store b idx fr.f d

(* --- statement bodies ----------------------------------------------- *)

(* Binary operands evaluate right to left, the order the interpreter's
   [eval a +. eval b] had, so global accesses reach [on_global] in the
   same sequence: [b] into register [d], then [a] into [d + 1], which
   leaves [d] alone. *)
let rec compile_expr st sc s (e : Prog.expr) d : frame -> unit =
  note_reg st d;
  let operands a b =
    let fb = compile_expr st sc s b d and fa = compile_expr st sc s a (d + 1) in
    fun fr ->
      fb fr;
      fa fr
  in
  let const x fr = Array.unsafe_set fr.f d x in
  match e with
  | Prog.Eref a -> read_access st sc s a d
  | Prog.Eiter i -> (
    match List.assoc_opt (iter_name i) sc.vars with
    | Some k -> fun fr -> Array.unsafe_set fr.f d (float_of_int (Array.unsafe_get fr.v k))
    | None -> fun _ -> invalid_arg "index out of bounds")
  | Prog.Eparam k -> (
    match resolve st sc st.sess.s_prog.Prog.params.(k) with
    | Slot j -> fun fr -> Array.unsafe_set fr.f d (float_of_int (Array.unsafe_get fr.v j))
    | Value z -> const (Zint.to_float z)
    | Unbound ex -> fun _ -> raise ex)
  | Prog.Econst x -> const x
  | Prog.Eneg a ->
    let fa = compile_expr st sc s a d in
    fun fr ->
      fa fr;
      Array.unsafe_set fr.f d (-.Array.unsafe_get fr.f d)
  | Prog.Eabs a ->
    let fa = compile_expr st sc s a d in
    fun fr ->
      fa fr;
      Array.unsafe_set fr.f d (Float.abs (Array.unsafe_get fr.f d))
  | Prog.Eadd (a, b) ->
    let ab = operands a b in
    fun fr ->
      ab fr;
      Array.unsafe_set fr.f d (Array.unsafe_get fr.f (d + 1) +. Array.unsafe_get fr.f d)
  | Prog.Esub (a, b) ->
    let ab = operands a b in
    fun fr ->
      ab fr;
      Array.unsafe_set fr.f d (Array.unsafe_get fr.f (d + 1) -. Array.unsafe_get fr.f d)
  | Prog.Emul (a, b) ->
    let ab = operands a b in
    fun fr ->
      ab fr;
      Array.unsafe_set fr.f d (Array.unsafe_get fr.f (d + 1) *. Array.unsafe_get fr.f d)
  | Prog.Ediv (a, b) ->
    let ab = operands a b in
    fun fr ->
      ab fr;
      Array.unsafe_set fr.f d (Array.unsafe_get fr.f (d + 1) /. Array.unsafe_get fr.f d)
  | Prog.Emin (a, b) ->
    let ab = operands a b in
    fun fr ->
      ab fr;
      Array.unsafe_set fr.f d (Float.min (Array.unsafe_get fr.f (d + 1)) (Array.unsafe_get fr.f d))
  | Prog.Emax (a, b) ->
    let ab = operands a b in
    fun fr ->
      ab fr;
      Array.unsafe_set fr.f d (Float.max (Array.unsafe_get fr.f (d + 1)) (Array.unsafe_get fr.f d))

(* one instance of [s] with its iterators in [sc]'s "#i" slots *)
let compile_body st sc (s : Prog.stmt) flops : frame -> unit =
  match s.Prog.body with
  | None -> fun fr -> fr.c.flops <- fr.c.flops +. flops
  | Some (lhs, rhs) ->
    let r = compile_expr st sc s rhs 0 in
    let w = write_access st sc s lhs 0 in
    fun fr ->
      r fr;
      w fr;
      fr.c.flops <- fr.c.flops +. flops

let bind_iters st sc n =
  let rec go sc i = if i = n then sc else go (fst (bind st sc (iter_name i))) (i + 1) in
  let sc' = go sc 0 in
  (sc', sc.next)

(* --- statements ----------------------------------------------------- *)

let seq (fs : (frame -> unit) list) : frame -> unit =
  match fs with
  | [] -> fun _ -> ()
  | [ f ] -> f
  | [ f; g ] -> fun fr -> f fr; g fr
  | _ ->
    let a = Array.of_list fs in
    fun fr ->
      for i = 0 to Array.length a - 1 do
        (Array.unsafe_get a i) fr
      done

let record_copy fr dst src =
  fr.dma_copies <- fr.dma_copies +. 1.0;
  let dst_local = Memory.buf_is_local fr.bufs.(dst) in
  let src_local = Memory.buf_is_local fr.bufs.(src) in
  if dst_local && not src_local then fr.dma_in.(dst) <- fr.dma_in.(dst) +. 1.0
  else if src_local && not dst_local then fr.dma_out.(src) <- fr.dma_out.(src) +. 1.0

(* Block count of a launch: product of the trip counts of the outermost
   chain of Block loops, each inner level evaluated at its outer
   loop's first iteration. *)
let rec compile_grid st sc (l : Ast.loop) : frame -> float =
  (* once per launch: exact arithmetic is cheap enough *)
  let lb = slow st sc l.Ast.lb and ub = slow st sc l.Ast.ub in
  let step = l.Ast.step in
  let inner =
    match l.Ast.body with
    | [ Ast.Loop ({ par = Ast.Block; _ } as l') ] ->
      let sc', k = bind st sc l.Ast.var in
      let g = compile_grid st sc' l' in
      fun fr lbv ->
        fr.v.(k) <- Zint.to_int_exn lbv;
        g fr
    | _ -> fun _ _ -> 1.0
  in
  fun fr ->
    let lbv = lb fr.v and ubv = ub fr.v in
    let trip =
      let d = Zint.sub ubv lbv in
      if Zint.is_negative d then 0.0
      else Zint.to_float (Zint.add (Zint.fdiv d step) Zint.one)
    in
    trip *. inner fr lbv

let rec conds_hold (cs : (int array -> bool) array) v i =
  i = Array.length cs || ((Array.unsafe_get cs i) v && conds_hold cs v (i + 1))

let rec compile_stm st sc (s : Ast.stm) : (frame -> unit) option =
  match s with
  | Ast.Comment _ -> None
  | Ast.Sync -> Some (fun fr -> fr.c.syncs <- fr.c.syncs +. 1.0)
  | Ast.Fence ->
    Some
      (fun fr ->
        fr.c.syncs <- fr.c.syncs +. 1.0;
        fr.c.fences <- fr.c.fences +. 1.0)
  | Ast.Guard (conds, body) ->
    let cs = Array.of_list (List.map (cond_expr st sc) conds) in
    let b = compile_block st sc body in
    Some (fun fr -> if conds_hold cs fr.v 0 then b fr)
  | Ast.Copy { dst; src } ->
    let rd = read_ref st sc src 0 and wr = write_ref st sc dst 0 in
    let d = buf_id st (dst.Ast.array, false) and s = buf_id st (src.Ast.array, false) in
    Some
      (fun fr ->
        rd fr;
        wr fr;
        if fr.collect_dma then record_copy fr d s)
  | Ast.Stmt_call { stmt_id; iter_args } ->
    (* call sites that agree on the statement, its arguments and the
       scope share one compiled body (an instance harness has many) *)
    let key = (stmt_id, iter_args, sc.vars, sc.next) in
    (match Hashtbl.find_opt st.calls key with
     | Some f -> Some f
     | None ->
       let f = compile_call st sc stmt_id iter_args in
       Hashtbl.replace st.calls key f;
       Some f)
  | Ast.Loop l -> Some (compile_loop st sc l)

and compile_call st sc stmt_id iter_args =
  match Hashtbl.find_opt st.sess.s_stmts stmt_id with
  | None -> fun _ -> invalid_arg (Printf.sprintf "Exec: unknown statement %d" stmt_id)
  | Some (stmt, _) when Array.length iter_args < stmt.Prog.depth ->
    fun _ -> invalid_arg "index out of bounds"
  | Some (stmt, flops) ->
    let n = Array.length iter_args in
    let args = Array.map (int_expr st sc) iter_args in
    let sc', base = bind_iters st sc n in
    let body = compile_body st sc' stmt flops in
    fun fr ->
      for i = 0 to n - 1 do
        Array.unsafe_set fr.v (base + i) ((Array.unsafe_get args i) fr.v)
      done;
      body fr

and compile_block st sc stms = seq (List.filter_map (compile_stm st sc) stms)

and compile_loop st sc (l : Ast.loop) =
  let lb = int_expr st sc l.Ast.lb and ub = int_expr st sc l.Ast.ub in
  let grid = if l.Ast.par = Ast.Block then Some (compile_grid st sc l) else None in
  let sc', k = bind st sc l.Ast.var in
  let body = compile_block st sc' l.Ast.body in
  let step_z = l.Ast.step and step_n = Zint.to_int_opt l.Ast.step in
  let run_at fr x =
    Array.unsafe_set fr.v k x;
    body fr
  in
  let iterate fr =
    let lbv = lb fr.v and ubv = ub fr.v in
    if lbv <= ubv then begin
      let step = match step_n with Some n -> n | None -> Zint.to_int_exn step_z in
      let trip = trip_count lbv ubv step in
      match fr.mode with
      | Sampled threshold when trip >= threshold && trip > 2 ->
        (* first + last, trapezoid rule for the middle *)
        let before = copy_counters fr.c in
        let launches_before = List.length fr.launches in
        run_at fr lbv;
        let launches_first =
          (* launches triggered by the first iteration (freshly
             prepended) must also be replicated for the middle *)
          let fresh = List.length fr.launches - launches_before in
          List.filteri (fun i _ -> i < fresh) fr.launches
        in
        run_at fr (add_c lbv (mul_c step (trip - 1)));
        let after_last = copy_counters fr.c in
        let mid = scale_counters (sub_counters after_last before) 0.5 in
        add_scaled fr.c mid (float_of_int (trip - 2));
        fr.launches <-
          List.map
            (fun ln -> { ln with repeat = ln.repeat *. float_of_int (trip - 2) })
            launches_first
          @ fr.launches
      | Sampled _ | Full ->
        let x = ref lbv in
        for i = 1 to trip do
          run_at fr !x;
          if i < trip then x := !x + step
        done
    end
  in
  match grid with
  | None -> iterate
  | Some grid ->
    fun fr ->
      if fr.in_launch then iterate fr
      else begin
        let g = grid fr in
        Emsc_obs.Prof.probe "exec.launch" ~args:[ ("grid", Emsc_obs.Json.Float g) ]
        @@ fun () ->
        let before = copy_counters fr.c in
        fr.in_launch <- true;
        iterate fr;
        fr.in_launch <- false;
        let delta = sub_counters fr.c before in
        Emsc_obs.Prof.add "launch.flops" delta.flops;
        Emsc_obs.Prof.add "launch.global" (total_global delta);
        Emsc_obs.Prof.add "launch.smem" (total_smem delta);
        Emsc_obs.Prof.add "launch.syncs" delta.syncs;
        if g > 0.0 then
          fr.launches <-
            { grid = g; per_block = scale_counters delta (1.0 /. g); repeat = 1.0 }
            :: fr.launches
      end

(* ------------------------------------------------------------------ *)
(* Sessions                                                            *)

(* The rewrite is consulted only while staging, on one domain: memoised
   per statement and access. *)
let session ~prog ?local_ref ~param_env () =
  let stmts = Hashtbl.create 8 in
  List.iter (fun (s : Prog.stmt) ->
    let f = match s.Prog.body with None -> 0 | Some (_, rhs) -> 1 + expr_flops rhs in
    Hashtbl.replace stmts s.Prog.id (s, float_of_int f))
    prog.Prog.stmts;
  let rewrite =
    match local_ref with
    | None -> fun _ _ -> None
    | Some f ->
      let cache = Hashtbl.create 64 in
      fun (s : Prog.stmt) (a : Prog.access) ->
        let key = (s.Prog.id, Obj.repr a) in
        match Hashtbl.find_opt cache key with
        | Some r -> r
        | None ->
          let r = f s a in
          Hashtbl.replace cache key r;
          r
  in
  { s_prog = prog; s_stmts = stmts; s_rewrite = rewrite; s_param_env = param_env;
    s_params = Hashtbl.create 8; s_staged = [] }

let stager sess =
  { sess; high = 0; buf_ids = Hashtbl.create 8; buf_list = []; ranks = 0; regs = 0;
    calls = Hashtbl.create 8 }

let finish st ~n_inputs code =
  Emsc_obs.Prof.add "exec.stagings" 1.0;
  { code; n_inputs; n_slots = st.high; arrays = Array.of_list (List.rev st.buf_list);
    max_rank = st.ranks; n_regs = st.regs }

let stage_fresh sess ~bound stms =
  let st = stager sess in
  (* later bindings shadow earlier ones of the same name *)
  let sc = List.fold_left (fun sc n -> fst (bind st sc n)) { vars = []; next = 0 } bound in
  let code = compile_block st sc stms in
  finish st ~n_inputs:(List.length bound) code

let stage sess ~bound stms =
  match
    List.find_opt (fun (b, s, _) -> b = bound && List.equal ( == ) s stms) sess.s_staged
  with
  | Some (_, _, staged) -> staged
  | None ->
    let staged = stage_fresh sess ~bound stms in
    sess.s_staged <- (bound, stms, staged) :: sess.s_staged;
    staged

let make_frame staged ~memory ~mode ~on_global ~collect_dma ~in_launch =
  let n = Array.length staged.arrays in
  { v = Array.make (max 1 staged.n_slots) 0;
    bufs =
      Array.map (fun (name, global) ->
        if global then Memory.global_buf memory name else Memory.buf memory name)
        staged.arrays;
    idx = Array.init (staged.max_rank + 1) (fun r -> Array.make r 0);
    f = Array.make (max 1 staged.n_regs) 0.0;
    c = fresh (); mode;
    hook = (match mode with Full -> on_global | Sampled _ -> None);
    collect_dma; dma_copies = 0.0; dma_in = Array.make n 0.0;
    dma_out = Array.make n 0.0; in_launch; launches = [] }

let block_dma staged fr =
  let tally t =
    List.sort compare
      (List.filter_map (fun i ->
         if t.(i) > 0.0 then Some (fst staged.arrays.(i), t.(i)) else None)
         (List.init (Array.length t) Fun.id))
  in
  { copies = fr.dma_copies; moved_in = tally fr.dma_in; moved_out = tally fr.dma_out }

(* flush a movement tally into Metrics; main domain only *)
let flush_dma_metrics (d : block_dma) =
  if Emsc_obs.Metrics.enabled () && d.copies > 0.0 then begin
    Emsc_obs.Metrics.counter "exec.copies" d.copies;
    List.iter (fun (name, words) ->
      if words > 0.0 then
        Emsc_obs.Metrics.counter ~labels:[ ("buffer", name) ]
          "exec.move_in_words" words)
      d.moved_in;
    List.iter (fun (name, words) ->
      if words > 0.0 then
        Emsc_obs.Metrics.counter ~labels:[ ("buffer", name) ]
          "exec.move_out_words" words)
      d.moved_out
  end

(* whole-run totals and scratchpad occupancy, recorded once per run:
   O(1) regardless of program size, and one boolean when disabled *)
let record_run_metrics staged fr memory =
  if Emsc_obs.Metrics.enabled () then begin
    let open Emsc_obs in
    flush_dma_metrics (block_dma staged fr);
    Metrics.counter "exec.runs" 1.0;
    Metrics.counter "exec.flops" fr.c.flops;
    Metrics.counter "exec.global_loads" fr.c.g_ld;
    Metrics.counter "exec.global_stores" fr.c.g_st;
    Metrics.counter "exec.smem_loads" fr.c.s_ld;
    Metrics.counter "exec.smem_stores" fr.c.s_st;
    Metrics.counter "exec.syncs" fr.c.syncs;
    Metrics.counter "exec.fences" fr.c.fences;
    let occ = Memory.local_occupancy memory in
    List.iter (fun (name, cells) ->
      Metrics.gauge_max ~labels:[ ("buffer", name) ]
        "exec.scratchpad_occupancy_words" (float_of_int cells))
      occ;
    if occ <> [] then
      Metrics.gauge_max "exec.scratchpad_occupancy_total_words"
        (float_of_int (List.fold_left (fun a (_, c) -> a + c) 0 occ))
  end

let run_block staged ~memory ?(mode = Full) ?on_global ?(collect_dma = false) inputs =
  if Array.length inputs <> staged.n_inputs then
    invalid_arg "Exec.run_block: one value per bound name";
  (* [in_launch] pre-set: the block body's own Block loops are plain
     loops here (the caller owns launch bookkeeping), and neither Prof
     nor Metrics is touched — safe on a worker domain *)
  let fr = make_frame staged ~memory ~mode ~on_global ~collect_dma ~in_launch:true in
  Array.blit inputs 0 fr.v 0 staged.n_inputs;
  staged.code fr;
  { b_counters = fr.c; b_dma = block_dma staged fr }

let run ~prog ?local_ref ~param_env ~memory ?(mode = Full) ?on_global stms =
  let staged = stage_fresh (session ~prog ?local_ref ~param_env ()) ~bound:[] stms in
  let fr =
    make_frame staged ~memory ~mode ~on_global
      ~collect_dma:(Emsc_obs.Metrics.enabled ()) ~in_launch:false
  in
  staged.code fr;
  record_run_metrics staged fr memory;
  { totals = fr.c; launches = List.rev fr.launches }

let run_instances ~prog ~param_env ~memory ?on_global iter =
  let sess = session ~prog ~param_env () in
  let st = stager sess in
  let bodies = Hashtbl.create 8 in
  Hashtbl.iter (fun id ((s : Prog.stmt), flops) ->
    let sc, _ = bind_iters st { vars = []; next = 0 } s.Prog.depth in
    Hashtbl.replace bodies id (compile_body st sc s flops))
    sess.s_stmts;
  (* the bodies run directly; the staged record only sizes the frame *)
  let staged = finish st ~n_inputs:0 (fun _ -> ()) in
  let fr =
    make_frame staged ~memory ~mode:Full ~on_global
      ~collect_dma:(Emsc_obs.Metrics.enabled ()) ~in_launch:false
  in
  (* consecutive instances mostly share their statement *)
  let last = ref (-1, fun _ -> ()) in
  iter (fun (s : Prog.stmt) (iters : int array) ->
    for i = 0 to s.Prog.depth - 1 do
      Array.unsafe_set fr.v i iters.(i)
    done;
    let id, body = !last in
    if id = s.Prog.id then body fr
    else begin
      let body = Hashtbl.find bodies s.Prog.id in
      last := (s.Prog.id, body);
      body fr
    end);
  record_run_metrics staged fr memory;
  fr.c
