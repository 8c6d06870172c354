(* The Section 4.3 tile-size search, visualized.

     dune exec examples/explore_tiles.exe

   Runs the constrained data-movement-cost minimization for the
   motion-estimation kernel over its memory-level tile sizes — as the
   driver pipeline's tilesearch stage — and prints the model's
   landscape next to the search result. *)

open Emsc_transform
open Emsc_driver
open Emsc_kernels

let ni = 1024
let nj = 1024
let ws = 16
let threads = 256.0
let smem_words = Emsc_machine.Hierarchy.(staging_capacity_words gtx8800)

let search =
  { Options.search_block = [| Some (ni / 8); Some (nj / 4); None; None |];
    search_ranges = [| (8, 64); (8, 64); (ws, ws); (ws, ws) |];
    search_mem_limit_words = smem_words;
    search_threads = threads;
    search_sync_cost = 40.0;
    search_transfer_cost = 4.0;
    search_max_evals = 60;
    search_snap_pow2 = true }

let () =
  let prog = Me.program ~ni ~nj ~ws in
  (* the cost landscape the search stage walks *)
  let problem = Pipeline.search_problem prog search in
  Format.printf "movement-cost model over (t_i, t_j), X = over 16 KB:@.@.";
  Format.printf "%8s" "";
  List.iter (fun tj -> Format.printf " %10d" tj) [ 8; 16; 32; 64 ];
  Format.printf "@.";
  List.iter (fun ti ->
    Format.printf "%8d" ti;
    List.iter (fun tj ->
      match problem.Tilesearch.evaluate [| ti; tj; ws; ws |] with
      | Some (cost, fp) when fp <= smem_words -> Format.printf " %10.0f" cost
      | Some _ -> Format.printf " %10s" "X"
      | None -> Format.printf " %10s" "?")
      [ 8; 16; 32; 64 ];
    Format.printf "@.")
    [ 8; 16; 32; 64 ];
  (* and what the pipeline picks when asked to search *)
  let c =
    match
      Pipeline.compile
        (Pipeline.job
           ~options:
             { Options.default with
               arch = `Gpu; find_band = false;
               tiling = Options.Search search }
           (Source.Program { name = "me-explore"; prog }))
    with
    | Ok c -> c
    | Error e ->
      Format.eprintf "%a@." Frontend.pp_error e;
      exit 1
  in
  match c.Pipeline.searched with
  | Some cand ->
    Format.printf
      "@.search picks (t_i, t_j) = (%d, %d): cost %.0f, %d words of \
       scratchpad@."
      cand.Tilesearch.t.(0)
      cand.Tilesearch.t.(1)
      cand.Tilesearch.cost cand.Tilesearch.footprint
  | None -> Format.printf "@.nothing feasible?!@."
