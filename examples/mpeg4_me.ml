(* Mpeg4 motion estimation on the simulated GPU.

     dune exec examples/mpeg4_me.exe

   Compiles the Figure 2 kernel through the driver pipeline with the
   multi-level tiling of Section 4 and the paper's tile sizes, buffers
   the sliding windows in scratchpad, verifies the transformed code
   against the reference executor at a small frame, and projects
   execution times for a large frame with and without scratchpad
   staging. *)

open Emsc_arith
open Emsc_core
open Emsc_machine
open Emsc_driver
open Emsc_kernels

let gpu = Hierarchy.gtx8800

let build ~ni ~nj ~ws ~tiles ~smem =
  match Pipeline.compile (Me.job ~ni ~nj ~ws ~tiles ~stage_data:smem ()) with
  | Ok c -> c
  | Error e ->
    Format.eprintf "%a@." Frontend.pp_error e;
    exit 1

let () =
  (* 1. correctness at a small frame *)
  let ni = 32 and nj = 32 and ws = 8 in
  let c = build ~ni ~nj ~ws ~tiles:(8, 8, 8, 8) ~smem:true in
  let init =
    [ ("cur", fun idx -> float_of_int (((idx.(0) * 13) + idx.(1)) mod 31));
      ("refb", fun idx -> float_of_int (((idx.(0) * 5) + (idx.(1) * 3)) mod 23));
      ("sad", fun _ -> 0.0) ]
  in
  let m_ref, (_ : Exec.counters) =
    Runner.reference ~memory:(Runner.Filled init) c.Pipeline.prog
  in
  let m, r = Runner.simulate ~mode:Exec.Full ~memory:(Runner.Filled init) c in
  let ok = Memory.arrays_equal m_ref m "sad" in
  Printf.printf "correctness (%dx%d, ws=%d): %s\n" ni nj ws
    (if ok then "OK" else "MISMATCH");
  if not ok then exit 1;
  Printf.printf "global words: %.0f, scratchpad words: %.0f\n\n"
    (Exec.total_global r.Exec.totals)
    (Exec.total_smem r.Exec.totals);

  (* 2. projected times at a 2048x2048 frame *)
  let ni = 2048 and nj = 2048 and ws = 16 in
  let project ~smem =
    let c = build ~ni ~nj ~ws ~tiles:(32, 16, 16, 16) ~smem in
    let plan = Option.get c.Pipeline.plan in
    let _, r = Runner.simulate c in
    let fp =
      if smem then
        Zint.to_int_exn (Plan.total_footprint plan Runner.zero_env)
        * (Hierarchy.staging gpu).Hierarchy.l_word_bytes
      else 0
    in
    Timing.total_ms gpu
      { Timing.threads = 256; smem_bytes_per_block = fp;
        coalesce_eff = (if smem then 16.0 else 4.0); global_sync = false;
        double_buffer = false }
      r
  in
  let t_smem = project ~smem:true in
  let t_dram = project ~smem:false in
  Printf.printf "projected time at %dx%d (ws %d), tiles (32,16,16,16):\n" ni nj
    ws;
  Printf.printf "  with scratchpad staging : %8.1f ms\n" t_smem;
  Printf.printf "  global memory only      : %8.1f ms  (%.1fx slower)\n" t_dram
    (t_dram /. t_smem)
