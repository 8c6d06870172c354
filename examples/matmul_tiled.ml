(* Matrix multiplication through the whole pipeline.

     dune exec examples/matmul_tiled.exe

   One driver compilation carries the entire flow: dependence analysis
   -> hyperplane band (i and j parallel, k sequential) -> multi-level
   tiling -> scratchpad buffers with hoisted movement for the
   accumulator -> verified execution. *)

open Emsc_codegen
open Emsc_core
open Emsc_machine
open Emsc_driver
open Emsc_kernels

let () =
  let n = 32 in
  let c =
    match Pipeline.compile (Matmul.job ~n ()) with
    | Ok c -> c
    | Error e ->
      Format.eprintf "%a@." Frontend.pp_error e;
      exit 1
  in

  (* 1. what parallelism is there? *)
  (match c.Pipeline.band with
   | Some band ->
     Format.printf "hyperplane band (space loops first):@.";
     List.iteri (fun k h ->
       Format.printf "  %a %s@." Emsc_linalg.Vec.pp h
         (if List.nth band.Emsc_transform.Hyperplanes.parallel k then
            "(parallel)"
          else "(sequential)"))
       band.Emsc_transform.Hyperplanes.hyperplanes
   | None -> Format.printf "no common permutable band?!@.");

  (* 2. the tiled plan: i, j across blocks; k sub-tiled to bound the
     buffers *)
  let plan = Option.get c.Pipeline.plan in
  List.iter (fun (b : Plan.buffered) ->
    Format.printf "buffer %s: sizes %a@." b.Plan.buffer.Alloc.local_name
      (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f " x ")
         Ast.pp_aexpr)
      (Array.to_list (Alloc.size_exprs b.Plan.buffer)))
    plan.Plan.buffered;

  let tiled = Option.get c.Pipeline.tiled in
  Format.printf "@.generated kernel (movement for C hoisted above kM):@.%a@.@."
    Ast.pp_block tiled.Pipeline.ast;

  (* 3. verify against the reference *)
  let init =
    [ ("A", fun idx -> float_of_int (((idx.(0) * 7) + idx.(1)) mod 13));
      ("B", fun idx -> float_of_int (((idx.(0) * 3) + (idx.(1) * 5)) mod 11));
      ("C", fun _ -> 0.0) ]
  in
  let m_ref, (_ : Exec.counters) =
    Runner.reference ~memory:(Runner.Filled init) c.Pipeline.prog
  in
  let m, r = Runner.simulate ~mode:Exec.Full ~memory:(Runner.Filled init) c in
  let ok = Memory.arrays_equal m_ref m "C" in
  Printf.printf "result: %s\n"
    (if ok then "matches reference" else "MISMATCH");
  if not ok then exit 1;
  Printf.printf "global words: %.0f (untiled would move %d)\n"
    (Exec.total_global r.Exec.totals)
    (4 * n * n * n)
