open Emsc_arith
open Emsc_linalg
open Emsc_poly
open Emsc_ir

(* Checked native-int steps; on overflow a bound or time is redone in
   [Zint] and converted with [Zint.to_int_exn], so nothing wraps. *)
exception Overflow

let add a b =
  let s = a + b in
  if (a lxor s) land (b lxor s) < 0 then raise_notrace Overflow else s

let small x = x >= -0x4000_0000 && x <= 0x4000_0000

let mul a b =
  if small a && small b then a * b
  else if a = 0 then 0
  else begin
    let p = a * b in
    if p / a <> b || (a = -1 && b = min_int) then raise_notrace Overflow else p
  end

(* [row . (x, 1)] over the first [n] entries of [x], for [row] of width
   [n + 1] (constant last): natively (raising [Overflow]) and exactly *)
let dot (row : Vec.t) n =
  let exact (x : int array) =
    let acc = ref row.(n) in
    for i = 0 to n - 1 do
      acc := Zint.add !acc (Zint.mul row.(i) (Zint.of_int x.(i)))
    done;
    !acc
  in
  let c = Array.map Zint.to_int_opt row in
  if Array.exists Option.is_none c then ((fun _ -> raise_notrace Overflow), exact)
  else begin
    let c = Array.map Option.get c in
    let k = c.(n) in
    let fast =
      match List.filter (fun i -> c.(i) <> 0) (List.init n Fun.id) with
      | [] -> fun _ -> k
      | [ i ] when c.(i) = 1 -> fun x -> add x.(i) k
      | [ i ] ->
        let a = c.(i) in
        fun x -> add (mul a x.(i)) k
      | terms ->
        let terms = Array.of_list terms in
        fun x ->
          let acc = ref k in
          for t = 0 to Array.length terms - 1 do
            let i = terms.(t) in
            acc := add !acc (mul c.(i) x.(i))
          done;
          !acc
    in
    (fast, exact)
  end

(* One side of a level's bounds over the prefix [x_0 .. x_{j-1}]: for
   [a > 0], [ceil(-v / a)] below and [floor(v / a)] above. *)
let side j (a, (e : Vec.t)) ~lower =
  (* [e] has width [j + 2]: drop its zero entry for [x_j] *)
  let fast, exact = dot (Array.append (Array.sub e 0 j) [| e.(j + 1) |]) j in
  let round v = Zint.to_int_exn (if lower then Zint.cdiv (Zint.neg v) a else Zint.fdiv v a) in
  match Zint.to_int_opt a with
  | None -> fun x -> round (exact x)
  | Some a ->
    fun x ->
      match fast x with
      | v when v <> min_int ->
        let n = if lower then -v else v in
        let q = n / a in
        if n mod a = 0 then q
        else if lower then if n > 0 then q + 1 else q
        else if n < 0 then q - 1
        else q
      | _ | (exception Overflow) -> round (exact x)

(* Call [f] on each integer point of the statement's domain, parameters
   fixed, in lexicographic order ([f] gets one shared array).  The
   bounds of every level come from ordered Fourier–Motzkin elimination
   once per statement; the points are then plain native-int loops,
   with no LP per point. *)
let iter_points (s : Prog.stmt) ~param_values f =
  let fixed =
    let p = ref s.Prog.domain in
    Array.iter (fun v -> p := Poly.fix_dim !p s.Prog.depth v) param_values;
    !p
  in
  if not (Poly.is_trivially_empty (Emsc_pip.Bounds.context fixed)) then begin
    let depth = s.Prog.depth in
    let levels =
      Array.mapi (fun j (l : Emsc_pip.Bounds.level) ->
        ( Array.of_list (List.map (side j ~lower:true) l.Emsc_pip.Bounds.lowers),
          Array.of_list (List.map (side j ~lower:false) l.Emsc_pip.Bounds.uppers) ))
        (Emsc_pip.Bounds.loop_bounds ~reduce:false fixed)
    in
    let x = Array.make depth 0 in
    let rec scan j =
      if j = depth then f x
      else begin
        let lowers, uppers = levels.(j) in
        if lowers = [||] || uppers = [||] then
          invalid_arg ("Reference: unbounded domain in " ^ s.Prog.name);
        let lo = ref min_int and hi = ref max_int in
        for b = 0 to Array.length lowers - 1 do
          lo := Int.max !lo (lowers.(b) x)
        done;
        for b = 0 to Array.length uppers - 1 do
          hi := Int.min !hi (uppers.(b) x)
        done;
        if !lo <= !hi then begin
          let v = ref !lo in
          let continue = ref true in
          while !continue do
            x.(j) <- !v;
            scan (j + 1);
            if !v = !hi then continue := false else incr v
          done
        end
      end
    in
    scan 0
  end

let domain_points s ~param_values =
  let acc = ref [] in
  iter_points s ~param_values (fun x -> acc := Array.copy x :: !acc);
  List.rev !acc

(* A growable flat int array: [width] ints per entry. *)
type flat = { width : int; mutable data : int array; mutable len : int }

let flat width = { width; data = Array.make (max 1 (64 * width)) 0; len = 0 }

let push fl (a : int array) =
  if (fl.len + 1) * fl.width > Array.length fl.data then begin
    let d = Array.make (2 * Array.length fl.data) 0 in
    Array.blit fl.data 0 d 0 (fl.len * fl.width);
    fl.data <- d
  end;
  let base = fl.len * fl.width in
  for c = 0 to fl.width - 1 do
    Array.unsafe_set fl.data (base + c) (Array.unsafe_get a c)
  done;
  fl.len <- fl.len + 1

(* entry [i] of [t] against entry [k] of [u], lexicographically from
   column [c] *)
let rec compare_from (t : flat) i (u : flat) k c =
  if c = t.width then 0
  else begin
    let d = Int.compare t.data.((i * t.width) + c) u.data.((k * u.width) + c) in
    if d <> 0 then d else compare_from t i u k (c + 1)
  end

let compare_at t i u k = compare_from t i u k 0

(* one statement's points, their schedule times, and the stable order
   that sorts them by time *)
type run = { stmt : Prog.stmt; points : flat; times : flat; order : int array }

let run_of (s : Prog.stmt) ~np ~(param_values : Zint.t array) =
  let depth = s.Prog.depth in
  (* schedule rows with the parameters folded into the constant *)
  let rows =
    Array.map (fun (row : Vec.t) ->
      let c = ref row.(depth + np) in
      for k = 0 to np - 1 do
        c := Zint.add !c (Zint.mul row.(depth + k) param_values.(k))
      done;
      let fast, exact = dot (Array.append (Array.sub row 0 depth) [| !c |]) depth in
      fun x -> try fast x with Overflow -> Zint.to_int_exn (exact x))
      s.Prog.schedule
  in
  let points = flat depth and times = flat (Array.length rows) in
  let t = Array.make (Array.length rows) 0 in
  iter_points s ~param_values (fun x ->
    push points x;
    for r = 0 to Array.length rows - 1 do
      t.(r) <- rows.(r) x
    done;
    push times t);
  let order = Array.init points.len Fun.id in
  let sorted = ref true in
  for i = 1 to points.len - 1 do
    if compare_at times (i - 1) times i > 0 then sorted := false
  done;
  if not !sorted then Array.stable_sort (fun i k -> compare_at times i times k) order;
  { stmt = s; points; times; order }

(* Every instance in schedule order, passed to [f] with a shared
   iterator array.  This is the stable sort of all statements' points
   taken statement by statement in lexicographic order: each
   statement's run sorted stably (usually it already is), then merged
   with ties going to the earlier statement. *)
let iter_instances p ~param_env f =
  let p = Prog.pad_schedules p in
  let np = Prog.nparams p in
  let param_values = Array.map param_env p.Prog.params in
  let runs = Array.of_list (List.map (fun s -> run_of s ~np ~param_values) p.Prog.stmts) in
  let pos = Array.make (Array.length runs) 0 in
  let x = Array.make (Array.fold_left (fun m r -> max m r.points.width) 0 runs) 0 in
  let head r = runs.(r).order.(pos.(r)) in
  let rec next () =
    (* the earliest head, the lowest statement on ties *)
    let best = ref (-1) in
    for r = 0 to Array.length runs - 1 do
      if pos.(r) < runs.(r).points.len
         && (!best < 0
             || compare_at runs.(r).times (head r) runs.(!best).times (head !best) < 0)
      then best := r
    done;
    if !best >= 0 then begin
      let r = runs.(!best) in
      let i = head !best in
      pos.(!best) <- pos.(!best) + 1;
      for c = 0 to r.points.width - 1 do
        x.(c) <- r.points.data.((i * r.points.width) + c)
      done;
      f r.stmt x;
      next ()
    end
  in
  next ()

let instances p ~param_env =
  let acc = ref [] in
  iter_instances p ~param_env (fun s x ->
    acc := (s, Array.init s.Prog.depth (fun i -> Zint.of_int x.(i))) :: !acc);
  List.rev !acc

let run p ~param_env memory ?on_global () =
  Exec.run_instances ~prog:p ~param_env ~memory ?on_global (iter_instances p ~param_env)
