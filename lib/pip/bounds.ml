open Emsc_arith
open Emsc_linalg
open Emsc_poly

type level = {
  lowers : (Zint.t * Vec.t) list;
  uppers : (Zint.t * Vec.t) list;
}

(* Zero out the j-th coefficient and truncate to width j+2 (columns for
   x_0..x_j plus the constant). *)
let truncate_expr j (row : Vec.t) =
  let n = Array.length row - 1 in
  let e = Array.make (j + 2) Zint.zero in
  Array.blit row 0 e 0 j;
  e.(j) <- Zint.zero;
  e.(j + 1) <- row.(n);
  e

let loop_bounds ?(reduce = true) p =
  let reduce p = if reduce then Poly.remove_redundant p else p in
  let dim = Poly.dim p in
  let levels = Array.make dim { lowers = []; uppers = [] } in
  let cur = ref (reduce p) in
  for j = dim - 1 downto 0 do
    let lowers, uppers = Poly.dim_bound_pairs !cur j in
    (* at this point !cur has dimension j+1, so every bound row only
       involves x_0..x_j: truncating is exact *)
    levels.(j) <-
      {
        lowers = List.map (fun (a, e) -> (a, truncate_expr j e)) lowers;
        uppers = List.map (fun (a, e) -> (a, truncate_expr j e)) uppers;
      };
    cur := reduce (Poly.eliminate_dim !cur j)
  done;
  levels

let context p =
  let dim = Poly.dim p in
  Poly.eliminate_dims p (List.init dim (fun i -> i))
