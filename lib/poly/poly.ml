open Emsc_arith
open Emsc_linalg

type t = { dim : int; eqs : Vec.t list; ineqs : Vec.t list }

exception Empty

(* --- constraint normalization ------------------------------------- *)

let var_part row = Array.sub row 0 (Array.length row - 1)
let const_of row = row.(Array.length row - 1)

(* Integer-tighten an inequality: divide the variable part by its gcd
   and floor the constant.  Exact on integer points.  Raises Empty for
   a constant contradiction; returns None for a trivially-true row. *)
let normalize_ineq row =
  let n = Array.length row - 1 in
  let g = Vec.content (var_part row) in
  if Zint.is_zero g then begin
    if Zint.is_negative row.(n) then raise Empty else None
  end
  else if Zint.is_one g then Some row
  else begin
    let r =
      Array.init (n + 1) (fun i ->
        if i < n then Zint.divexact row.(i) g else Zint.fdiv row.(i) g)
    in
    Some r
  end

(* Normalize an equality: integer-infeasible when gcd of the variable
   part does not divide the constant.  Sign-normalized so the first
   nonzero coefficient is positive. *)
let normalize_eq row =
  let n = Array.length row - 1 in
  let g = Vec.content (var_part row) in
  if Zint.is_zero g then begin
    if not (Zint.is_zero row.(n)) then raise Empty else None
  end
  else begin
    if not (Zint.is_zero (Zint.rem row.(n) g)) then raise Empty;
    let r =
      if Zint.is_one g then row
      else Array.map (fun x -> Zint.divexact x g) row
    in
    let rec first_nonzero i =
      if Zint.is_zero r.(i) then first_nonzero (i + 1) else r.(i)
    in
    Some (if Zint.is_negative (first_nonzero 0) then Vec.neg r else r)
  end

(* Deduplicate inequalities sharing a variable part: keep the tightest
   (smallest) constant. *)
let dedupe_ineqs ineqs =
  let cmp a b =
    let c = Vec.compare (var_part a) (var_part b) in
    if c <> 0 then c else Zint.compare (const_of a) (const_of b)
  in
  let sorted = List.sort cmp ineqs in
  (* after sorting, the first row of each var-part group has the
     smallest constant, i.e. is the tightest: keep it, drop the rest *)
  let rec keep = function
    | [] -> []
    | r :: rest ->
      let same_dir r' = Vec.equal (var_part r) (var_part r') in
      r :: keep (List.filter (fun r' -> not (same_dir r')) rest)
  in
  keep sorted

let dedupe_eqs eqs = List.sort_uniq Vec.compare eqs

let bottom dim =
  let row = Vec.make (dim + 1) in
  row.(dim) <- Zint.minus_one;
  { dim; eqs = []; ineqs = [ row ] }

let construct dim eqs ineqs =
  try
    let eqs = List.filter_map normalize_eq eqs in
    let ineqs = List.filter_map normalize_ineq ineqs in
    { dim; eqs = dedupe_eqs eqs; ineqs = dedupe_ineqs ineqs }
  with Empty -> bottom dim

let universe dim = { dim; eqs = []; ineqs = [] }

let check_width dim rows =
  List.iter (fun r ->
    if Array.length r <> dim + 1 then
      invalid_arg "Poly: constraint width <> dim + 1")
    rows

let make ~dim ~eqs ~ineqs =
  check_width dim eqs;
  check_width dim ineqs;
  construct dim eqs ineqs

let of_ineqs ~dim rows = make ~dim ~eqs:[] ~ineqs:(List.map Vec.of_ints rows)

let dim p = p.dim
let constraints p = (p.eqs, p.ineqs)

let add_eq p row = construct p.dim (row :: p.eqs) p.ineqs
let add_ineq p row = construct p.dim p.eqs (row :: p.ineqs)

let intersect p q =
  if p.dim <> q.dim then invalid_arg "Poly.intersect: dimension mismatch";
  construct p.dim (p.eqs @ q.eqs) (p.ineqs @ q.ineqs)

let is_trivially_empty p =
  List.exists (fun r ->
    Vec.is_zero (var_part r) && Zint.is_negative (const_of r))
    p.ineqs

let is_empty_impl p =
  is_trivially_empty p
  || Simplex.feasible_point ~dim:p.dim ~eqs:p.eqs ~ineqs:p.ineqs = None

let is_empty p = Emsc_obs.Prof.wrap "poly.is_empty" is_empty_impl p

let is_universe p = p.eqs = [] && p.ineqs = []

let eval_row row pt =
  let n = Array.length row - 1 in
  let acc = ref row.(n) in
  for i = 0 to n - 1 do
    acc := Zint.add !acc (Zint.mul row.(i) pt.(i))
  done;
  !acc

let contains_point p pt =
  Array.length pt = p.dim
  && List.for_all (fun r -> Zint.is_zero (eval_row r pt)) p.eqs
  && List.for_all (fun r -> not (Zint.is_negative (eval_row r pt))) p.ineqs

let sample_rational p =
  Simplex.feasible_point ~dim:p.dim ~eqs:p.eqs ~ineqs:p.ineqs

(* --- Fourier–Motzkin ------------------------------------------------ *)

(* Substitute using equality [e] (nonzero coefficient at [j]) into [row]
   so the result has a zero coefficient at [j]; valid for both
   equalities and inequalities since the multiplier on [row] is > 0. *)
let substitute_eq e j row =
  let ej = e.(j) and rj = row.(j) in
  if Zint.is_zero rj then row
  else begin
    let mult_row = Zint.abs ej in
    let mult_e = Zint.neg (Zint.mul rj (Zint.of_int (Zint.sign ej))) in
    Vec.combine mult_row row mult_e e
  end

let eliminate_dim_impl p j =
  (* input-structure histograms: FM projection cost is driven by
     constraint count and dimension, so record both per call *)
  if Emsc_obs.Metrics.enabled () then begin
    Emsc_obs.Metrics.observe "poly.project.ineqs"
      (float_of_int (List.length p.ineqs));
    Emsc_obs.Metrics.observe "poly.project.dim" (float_of_int p.dim)
  end;
  if is_trivially_empty p then bottom (p.dim - 1)
  else begin
    let drop row = Vec.remove row j in
    let has_j r = not (Zint.is_zero r.(j)) in
    match List.find_opt has_j p.eqs with
    | Some e ->
      let other_eqs = List.filter (fun r -> r != e) p.eqs in
      construct (p.dim - 1)
        (List.map (fun r -> drop (substitute_eq e j r)) other_eqs)
        (List.map (fun r -> drop (substitute_eq e j r)) p.ineqs)
    | None ->
      let pos, rest = List.partition (fun r -> Zint.is_positive r.(j)) p.ineqs in
      let neg, zero = List.partition (fun r -> Zint.is_negative r.(j)) rest in
      let combined =
        List.concat_map (fun rp ->
          List.map (fun rn ->
            (* positive multipliers: (-an) * rp + ap * rn *)
            drop (Vec.combine (Zint.neg rn.(j)) rp rp.(j) rn))
            neg)
          pos
      in
      construct (p.dim - 1)
        (List.map drop p.eqs)
        (List.map drop zero @ combined)
  end

let eliminate_dim p j =
  if j < 0 || j >= p.dim then invalid_arg "Poly.eliminate_dim";
  Emsc_obs.Prof.wrap2 "poly.eliminate_dim" eliminate_dim_impl p j

let eliminate_dims p js =
  let sorted = List.sort_uniq (fun a b -> compare b a) js in
  List.fold_left eliminate_dim p sorted

let project_prefix p k =
  let js = List.init (p.dim - k) (fun i -> k + i) in
  eliminate_dims p js

(* --- affine images --------------------------------------------------- *)

let insert_dims p ~pos ~count =
  if count = 0 then p
  else begin
    let zeros = Vec.make count in
    let widen row =
      let n = Array.length row - 1 in
      Vec.append (Array.sub row 0 pos)
        (Vec.append zeros (Array.sub row pos (n + 1 - pos)))
    in
    { dim = p.dim + count;
      eqs = List.map widen p.eqs;
      ineqs = List.map widen p.ineqs }
  end

let image_impl p f =
  let n = p.dim and m = Mat.rows f in
  (* build over (x, y) then eliminate x *)
  let ext = insert_dims p ~pos:n ~count:m in
  let eq_rows =
    List.init m (fun i ->
      let row = Vec.make (n + m + 1) in
      for j = 0 to n - 1 do
        row.(j) <- Zint.neg f.(i).(j)
      done;
      row.(n + i) <- Zint.one;
      row.(n + m) <- Zint.neg f.(i).(n);
      row)
  in
  let combined =
    construct (n + m) (eq_rows @ ext.eqs) ext.ineqs
  in
  eliminate_dims combined (List.init n (fun i -> i))

let image p f =
  if Mat.cols f <> p.dim + 1 then invalid_arg "Poly.image: map width";
  Emsc_obs.Prof.wrap2 "poly.image" image_impl p f

let preimage p f =
  let n = p.dim in
  if Mat.rows f <> n then invalid_arg "Poly.preimage: map height";
  let pdim = Mat.cols f - 1 in
  let transform row =
    let out = Vec.make (pdim + 1) in
    for k = 0 to pdim do
      let acc = ref Zint.zero in
      for i = 0 to n - 1 do
        acc := Zint.add !acc (Zint.mul row.(i) f.(i).(k))
      done;
      out.(k) <- !acc
    done;
    out.(pdim) <- Zint.add out.(pdim) row.(n);
    out
  in
  construct pdim (List.map transform p.eqs) (List.map transform p.ineqs)

let translate p v =
  if Array.length v <> p.dim then invalid_arg "Poly.translate";
  let shift row =
    let r = Vec.copy row in
    r.(p.dim) <- Zint.sub row.(p.dim) (Vec.dot (var_part row) v);
    r
  in
  (* x' = x + v  =>  substitute x = x' - v:  a.(x'-v) + c = a.x' + (c - a.v) *)
  { p with eqs = List.map shift p.eqs; ineqs = List.map shift p.ineqs }

let fix_dim p j v =
  if j < 0 || j >= p.dim then invalid_arg "Poly.fix_dim";
  let subst row =
    let r = Vec.remove row j in
    r.(p.dim - 1) <- Zint.add r.(p.dim - 1) (Zint.mul row.(j) v);
    r
  in
  construct (p.dim - 1) (List.map subst p.eqs) (List.map subst p.ineqs)

(* --- bounds ----------------------------------------------------------- *)

let var_bounds p i =
  let obj = Array.make (p.dim + 1) Q.zero in
  obj.(i) <- Q.one;
  let lo =
    match Simplex.minimize ~dim:p.dim ~eqs:p.eqs ~ineqs:p.ineqs ~obj with
    | Simplex.Optimal (v, _) -> Some v
    | Simplex.Unbounded | Simplex.Infeasible -> None
  in
  let hi =
    match Simplex.maximize ~dim:p.dim ~eqs:p.eqs ~ineqs:p.ineqs ~obj with
    | Simplex.Optimal (v, _) -> Some v
    | Simplex.Unbounded | Simplex.Infeasible -> None
  in
  (lo, hi)

let var_bounds_int p i =
  let lo, hi = var_bounds p i in
  (Option.map Q.ceil lo, Option.map Q.floor hi)

let dim_bound_pairs p j =
  let lowers = ref [] and uppers = ref [] in
  let zero_j row =
    let r = Vec.copy row in
    r.(j) <- Zint.zero;
    r
  in
  let add_ineq row =
    let a = row.(j) in
    if Zint.is_positive a then lowers := (a, zero_j row) :: !lowers
    else if Zint.is_negative a then
      uppers := (Zint.neg a, zero_j row) :: !uppers
  in
  List.iter add_ineq p.ineqs;
  List.iter (fun row ->
    let a = row.(j) in
    if not (Zint.is_zero a) then begin
      let row = if Zint.is_negative a then Vec.neg row else row in
      let a = Zint.abs a in
      lowers := (a, zero_j row) :: !lowers;
      uppers := (a, Vec.neg (zero_j row)) :: !uppers
    end)
    p.eqs;
  (!lowers, !uppers)

(* --- entailment and redundancy ---------------------------------------- *)

let row_min p row =
  Simplex.minimize ~dim:p.dim ~eqs:p.eqs ~ineqs:p.ineqs
    ~obj:(Simplex.obj_of_vec row)

let row_max p row =
  Simplex.maximize ~dim:p.dim ~eqs:p.eqs ~ineqs:p.ineqs
    ~obj:(Simplex.obj_of_vec row)

let implies p row =
  match row_min p row with
  | Simplex.Infeasible -> true
  | Simplex.Unbounded -> false
  | Simplex.Optimal (v, _) -> Q.sign v >= 0

let is_subset p q =
  if p.dim <> q.dim then invalid_arg "Poly.is_subset";
  is_empty p
  || (List.for_all (fun e -> implies p e && implies p (Vec.neg e)) q.eqs
      && List.for_all (implies p) q.ineqs)

let equal_set p q = is_subset p q && is_subset q p

let remove_redundant_impl p =
  if is_empty p then bottom p.dim
  else begin
    (* implicit equalities first *)
    let eqs = ref p.eqs in
    let ineqs = ref [] in
    List.iter (fun row ->
      match row_max p row with
      | Simplex.Optimal (v, _) when Q.is_zero v -> eqs := row :: !eqs
      | _ -> ineqs := row :: !ineqs)
      p.ineqs;
    (* then drop inequalities implied by the others *)
    let kept = ref [] in
    let rec sweep = function
      | [] -> ()
      | row :: rest ->
        let others = { p with eqs = !eqs; ineqs = !kept @ rest } in
        if implies others row then sweep rest
        else begin
          kept := row :: !kept;
          sweep rest
        end
    in
    sweep !ineqs;
    construct p.dim !eqs !kept
  end

let remove_redundant p =
  Emsc_obs.Prof.wrap "poly.remove_redundant" remove_redundant_impl p

let affine_hull p =
  let implicit =
    List.filter (fun row ->
      match row_max p row with
      | Simplex.Optimal (v, _) -> Q.is_zero v
      | Simplex.Unbounded | Simplex.Infeasible -> false)
      p.ineqs
  in
  List.filter_map normalize_eq (p.eqs @ implicit) |> dedupe_eqs

(* --- printing ---------------------------------------------------------- *)

let pp_row names fmt row ~rel =
  let n = Array.length row - 1 in
  let first = ref true in
  for i = 0 to n - 1 do
    let c = row.(i) in
    if not (Zint.is_zero c) then begin
      let name = names i in
      if !first then begin
        if Zint.is_one c then Format.fprintf fmt "%s" name
        else if Zint.equal c Zint.minus_one then Format.fprintf fmt "-%s" name
        else Format.fprintf fmt "%a%s" Zint.pp c name;
        first := false
      end
      else if Zint.is_positive c then begin
        if Zint.is_one c then Format.fprintf fmt " + %s" name
        else Format.fprintf fmt " + %a%s" Zint.pp c name
      end
      else begin
        let a = Zint.abs c in
        if Zint.is_one a then Format.fprintf fmt " - %s" name
        else Format.fprintf fmt " - %a%s" Zint.pp a name
      end
    end
  done;
  let c = row.(n) in
  if !first then Format.fprintf fmt "%a" Zint.pp c
  else if Zint.is_positive c then Format.fprintf fmt " + %a" Zint.pp c
  else if Zint.is_negative c then
    Format.fprintf fmt " - %a" Zint.pp (Zint.abs c);
  Format.fprintf fmt " %s 0" rel

let pp_with names fmt p =
  if is_universe p then Format.fprintf fmt "{ true }"
  else begin
    Format.fprintf fmt "{ ";
    let sep = ref false in
    let item rel row =
      if !sep then Format.fprintf fmt ", ";
      sep := true;
      pp_row names fmt row ~rel
    in
    List.iter (item "=") p.eqs;
    List.iter (item ">=") p.ineqs;
    Format.fprintf fmt " }"
  end

let default_name i = Printf.sprintf "x%d" i

let pp fmt p = pp_with default_name fmt p

let pp_named names fmt p =
  pp_with (fun i -> if i < Array.length names then names.(i) else default_name i)
    fmt p

let to_string ?names p =
  Format.asprintf "%a"
    (match names with None -> pp | Some ns -> pp_named ns)
    p
