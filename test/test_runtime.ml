(* lib/runtime: the block-parallel execution backend.  Bit-for-bit
   equality with the sequential interpreter (arrays, counter totals,
   launch shapes) across job counts, policies and double buffering,
   and with the legacy interpreter on generated and suite kernels;
   staging once per distinct phase;
   arena-pool semantics; the DMA pipeline splitter; the write-ownership
   tracker; and the double-buffer capacity rule. *)

open Emsc_arith
open Emsc_ir
open Emsc_codegen
open Emsc_core
open Emsc_machine
open Emsc_driver
open Emsc_runtime

let compiled job =
  match Pipeline.compile job with
  | Ok c -> c
  | Error e -> Alcotest.failf "compile failed: %s" (Frontend.error_message e)

let totals_json (r : Exec.result) =
  Emsc_obs.Json.to_string (Exec.counters_json r.Exec.totals)

let grids (r : Exec.result) =
  List.map (fun (l : Exec.launch) -> l.Exec.grid) r.Exec.launches

(* arrays, reduced totals and launch structure must all match exactly *)
let check_same (prog : Prog.t) (m_seq, r_seq) (m_par, r_par) =
  List.iter (fun (d : Prog.array_decl) ->
    Alcotest.(check bool)
      (d.Prog.array_name ^ " bit-identical") true
      (Memory.arrays_equal ~eps:0.0 m_seq m_par d.Prog.array_name))
    prog.Prog.arrays;
  Alcotest.(check string) "counter totals" (totals_json r_seq)
    (totals_json r_par);
  Alcotest.(check (list (float 0.0))) "launch grids" (grids r_seq)
    (grids r_par)

let rec contains_launch (s : Ast.stm) =
  match s with
  | Ast.Loop l -> l.Ast.par = Ast.Block || List.exists contains_launch l.Ast.body
  | Ast.Guard (_, body) -> List.exists contains_launch body
  | Ast.Copy _ | Ast.Sync | Ast.Fence | Ast.Stmt_call _ | Ast.Comment _ -> false

let simulate_seq c =
  Runner.simulate ~mode:Exec.Full ~memory:Runner.Pseudorandom c

let simulate_par ?policy ?(double_buffer = false) ~jobs c =
  Runner.simulate ~memory:Runner.Pseudorandom ~backend:(`Par jobs) ?policy
    ~double_buffer ~track_ownership:true c

(* --- parallel == sequential on real kernels ------------------------------ *)

let test_par_matches_seq_matmul () =
  let c = compiled (Emsc_kernels.Matmul.job ~n:32 ()) in
  let seq = simulate_seq c in
  check_same c.Pipeline.prog seq (simulate_par ~jobs:3 c)

let test_par_matches_seq_me () =
  let c = compiled (Emsc_kernels.Me.job ()) in
  let seq = simulate_seq c in
  check_same c.Pipeline.prog seq (simulate_par ~jobs:4 c)

let test_policies_and_double_buffer_match () =
  let c = compiled (Emsc_kernels.Matmul.job ~n:32 ()) in
  let seq = simulate_seq c in
  check_same c.Pipeline.prog seq
    (simulate_par ~policy:Runtime.Work_stealing ~jobs:4 c);
  check_same c.Pipeline.prog seq
    (simulate_par ~policy:Runtime.Static ~double_buffer:true ~jobs:4 c);
  check_same c.Pipeline.prog seq
    (simulate_par ~policy:Runtime.Work_stealing ~double_buffer:true ~jobs:2
       c)

(* job-count invariance: the barrier reduction runs in block order, so
   the totals must not depend on how blocks were spread over domains *)
let test_totals_invariant_in_jobs () =
  let c = compiled (Emsc_kernels.Me.job ()) in
  let _, r1 = simulate_par ~jobs:1 c in
  let _, r8 = simulate_par ~jobs:8 c in
  Alcotest.(check string) "-j1 == -j8 totals" (totals_json r1)
    (totals_json r8);
  Alcotest.(check (list (float 0.0))) "-j1 == -j8 grids" (grids r1)
    (grids r8)

(* multi-launch host loop with Fence-delimited movement phases: the
   overlapped stencil through Runner.execute, pipelined and not *)
let test_stencil_multi_launch () =
  let n = 1024 and steps = 16 and ts = 64 and tt = 4 in
  let prog = Emsc_kernels.Jacobi1d.program ~n ~steps in
  let k = Emsc_transform.Stencil.overlapped_1d ~n ~steps ~ts ~tt prog in
  let run ?backend ?(double_buffer = false) () =
    Runner.execute ~prog ~local_ref:k.Emsc_transform.Stencil.local_ref
      ~locals:k.Emsc_transform.Stencil.locals ~mode:Exec.Full
      ~memory:Runner.Pseudorandom ?backend ~double_buffer
      ~track_ownership:true
      ~block_words:k.Emsc_transform.Stencil.smem_words
      k.Emsc_transform.Stencil.ast
  in
  let seq = run () in
  let _, r_seq = seq in
  Alcotest.(check int) "one launch per time tile"
    k.Emsc_transform.Stencil.time_tiles
    (List.length r_seq.Exec.launches);
  check_same prog seq (run ~backend:(`Par 4) ());
  check_same prog seq (run ~backend:(`Par 4) ~double_buffer:true ())

(* --- ownership tracker --------------------------------------------------- *)

(* every block increments A[0]: a genuine cross-block write-write race
   the tracker must refuse (sequential execution happens to be
   deterministic, which is exactly why it needs a runtime check) *)
let racy_prog =
  let np = 0 in
  let w = Prog.mk_access ~array:"A" ~kind:Prog.Write ~rows:[ [ 0; 0 ] ] in
  let r = Prog.mk_access ~array:"A" ~kind:Prog.Read ~rows:[ [ 0; 0 ] ] in
  let s =
    Build.stmt ~id:1 ~name:"S_racy" ~np ~depth:1 ~iter_names:[| "i" |]
      ~domain:(Build.box_domain ~np [ (0, 3) ])
      ~writes:[ w ] ~reads:[ r ]
      ~body:(w, Prog.Eadd (Prog.Eref r, Prog.Econst 1.0))
      ~beta:[ 0; 0 ] ()
  in
  { Prog.params = [||];
    arrays = [ Build.array1 "A" 8 ~np ];
    stmts = [ s ] }

let racy_ast =
  [ Ast.Loop
      { Ast.var = "i"; lb = Ast.Const Zint.zero;
        ub = Ast.Const (Zint.of_int 3); step = Zint.one; par = Ast.Block;
        body =
          [ Ast.Stmt_call { stmt_id = 1; iter_args = [| Ast.Var "i" |] } ] } ]

let test_tracker_catches_race () =
  (* the sequential interpreter accepts it... *)
  let _, r = Runner.execute ~prog:racy_prog ~mode:Exec.Full racy_ast in
  let flops_seq = r.Exec.totals.Exec.flops in
  Alcotest.(check bool) "work happened" true (flops_seq > 0.0);
  (* ...the parallel backend with tracking must not (the offending block
     pair depends on scheduling, so only the array name is asserted) *)
  match
    Runner.execute ~prog:racy_prog ~backend:(`Par 2) ~track_ownership:true
      racy_ast
  with
  | _ -> Alcotest.fail "write-write race went undetected"
  | exception Runtime.Ownership_violation msg ->
    let contains hay needle =
      let nh = String.length hay and nn = String.length needle in
      let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
      at 0
    in
    Alcotest.(check bool)
      (Printf.sprintf "violation names the array (%s)" msg)
      true
      (contains msg "A (word 0)")

let test_tracker_off_by_default () =
  (* without tracking the race executes (numerically wrong but silent):
     the backend only promises determinism for race-free plans *)
  let _, r = Runner.execute ~prog:racy_prog ~backend:(`Par 1) racy_ast in
  Alcotest.(check bool) "runs" true (r.Exec.totals.Exec.flops > 0.0)

(* --- arena pool (satellite: typed errors, peak gauge, idempotence) ------- *)

let arena_base () =
  let m = Runner.prepare ~param_env:Runner.no_params racy_prog in
  Memory.declare_local m "l_buf";
  m

let test_arena_capacity_typed_error () =
  let pool = Arena.create_pool ~capacity_words:64 ~base:(arena_base ()) () in
  (match Arena.acquire pool ~words:65 with
   | Error (Arena.Capacity_exceeded { requested_words; capacity_words }) ->
     Alcotest.(check int) "requested" 65 requested_words;
     Alcotest.(check int) "capacity" 64 capacity_words
   | Error e -> Alcotest.failf "wrong error: %s" (Arena.error_message e)
   | Ok _ -> Alcotest.fail "over-capacity acquire succeeded");
  (* a fitting request still works after the refusal *)
  match Arena.acquire pool ~words:64 with
  | Ok a -> Arena.release a
  | Error e -> Alcotest.failf "fitting acquire failed: %s" (Arena.error_message e)

let test_arena_release_idempotent_and_peak () =
  let pool = Arena.create_pool ~capacity_words:100 ~base:(arena_base ()) () in
  let a = Result.get_ok (Arena.acquire pool ~words:40) in
  let b = Result.get_ok (Arena.acquire pool ~words:40) in
  Alcotest.(check int) "two in use" 2 (Arena.in_use pool);
  Memory.write_local (Arena.memory a) "l_buf" [| 0 |] 1.0;
  Memory.write_local (Arena.memory a) "l_buf" [| 1 |] 2.0;
  Memory.write_local (Arena.memory b) "l_buf" [| 0 |] 3.0;
  Arena.release a;
  Arena.release a;  (* idempotent *)
  Alcotest.(check int) "one in use after double release" 1
    (Arena.in_use pool);
  Arena.release b;
  Alcotest.(check int) "none in use" 0 (Arena.in_use pool);
  Alcotest.(check int) "peak concurrent arenas" 2 (Arena.peak_in_use pool);
  (* the released views recorded their per-buffer peak occupancy *)
  Alcotest.(check (list (pair string int))) "peak occupancy"
    [ ("l_buf", 2) ]
    (Arena.peak_occupancy pool);
  (* recycled views come back with empty locals *)
  let c = Result.get_ok (Arena.acquire pool ~words:10) in
  Alcotest.(check int) "recycled view is clean" 0
    (Memory.local_words (Arena.memory c));
  Arena.release c

let test_arena_blocks_then_proceeds () =
  (* max_arenas 1: the second acquire must wait for the release *)
  let pool = Arena.create_pool ~max_arenas:1 ~base:(arena_base ()) () in
  let a = Result.get_ok (Arena.acquire pool ~words:1) in
  Alcotest.(check (option bool)) "try_acquire refuses while full" None
    (Option.map (fun _ -> true) (Arena.try_acquire pool ~words:1));
  Arena.release a;
  match Arena.try_acquire pool ~words:1 with
  | Some b -> Arena.release b
  | None -> Alcotest.fail "pool still full after release"

(* --- arena failure paths (satellite: transactional acquisition) ---------- *)

exception Fork_failed

(* forks happen only while the free list is empty, so holding every
   granted arena until the end makes each iteration fork anew: the
   hammer alternates injected fork failures with retries and checks the
   pool is left exactly as found after every failure (counters
   untouched, mutex released — the retry would deadlock otherwise) *)
let test_arena_fork_failure_hammer () =
  let should_fail = ref false in
  let fork m = if !should_fail then raise Fork_failed else Memory.fork_view m in
  let pool = Arena.create_pool ~fork ~base:(arena_base ()) () in
  let held = ref [] in
  for i = 1 to 20 do
    should_fail := true;
    (match Arena.acquire pool ~words:1 with
     | _ -> Alcotest.fail "acquire swallowed the fork failure"
     | exception Fork_failed -> ());
    Alcotest.(check int) "in_use untouched by failed acquire" (i - 1)
      (Arena.in_use pool);
    (match Arena.try_acquire pool ~words:1 with
     | _ -> Alcotest.fail "try_acquire swallowed the fork failure"
     | exception Fork_failed -> ());
    should_fail := false;
    match Arena.acquire pool ~words:1 with
    | Ok a -> held := a :: !held
    | Error e -> Alcotest.failf "retry failed: %s" (Arena.error_message e)
  done;
  Alcotest.(check int) "every retry granted" 20 (Arena.in_use pool);
  Alcotest.(check int) "peak counts only successes" 20
    (Arena.peak_in_use pool);
  List.iter Arena.release !held;
  Alcotest.(check int) "drained" 0 (Arena.in_use pool)

let test_arena_acquire_all_transactional () =
  let pool =
    Arena.create_pool ~capacity_words:100 ~max_arenas:4 ~base:(arena_base ())
      ()
  in
  (match Arena.acquire_all pool ~words:[ 30; 30; 30 ] with
   | Ok arenas ->
     Alcotest.(check int) "batch granted atomically" 3 (Arena.in_use pool);
     List.iter Arena.release arenas
   | Error e -> Alcotest.failf "batch refused: %s" (Arena.error_message e));
  Alcotest.(check int) "batch drained" 0 (Arena.in_use pool);
  (match Arena.acquire_all pool ~words:[ 60; 60 ] with
   | Error (Arena.Capacity_exceeded { requested_words; capacity_words }) ->
     Alcotest.(check int) "total requested" 120 requested_words;
     Alcotest.(check int) "capacity" 100 capacity_words
   | Error e -> Alcotest.failf "wrong error: %s" (Arena.error_message e)
   | Ok _ -> Alcotest.fail "over-capacity batch granted");
  match Arena.acquire_all pool ~words:[ 1; 1; 1; 1; 1 ] with
  | Error (Arena.Too_many_arenas { requested; max_arenas }) ->
    Alcotest.(check int) "requested arenas" 5 requested;
    Alcotest.(check int) "arena cap" 4 max_arenas
  | Error e -> Alcotest.failf "wrong error: %s" (Arena.error_message e)
  | Ok _ -> Alcotest.fail "batch wider than the arena cap granted"

(* a fork failure mid-batch must roll the already-granted arenas back:
   no slab leak, no peak_in_use skew, and the pool keeps working *)
let test_arena_acquire_all_rollback () =
  let calls = ref 0 in
  let fork m =
    incr calls;
    if !calls = 3 then raise Fork_failed else Memory.fork_view m
  in
  let pool = Arena.create_pool ~fork ~base:(arena_base ()) () in
  (match Arena.acquire_all pool ~words:[ 10; 10; 10 ] with
   | _ -> Alcotest.fail "acquire_all swallowed the fork failure"
   | exception Fork_failed -> ());
  Alcotest.(check int) "no slab leak" 0 (Arena.in_use pool);
  Alcotest.(check int) "no peak skew" 0 (Arena.peak_in_use pool);
  match Arena.acquire_all pool ~words:[ 10; 10 ] with
  | Ok arenas ->
    Alcotest.(check int) "rolled-back views recycle" 2 (List.length arenas);
    List.iter Arena.release arenas
  | Error e ->
    Alcotest.failf "batch after rollback failed: %s" (Arena.error_message e)

(* --- inter-tile reuse (tentpole): chained residency ----------------------- *)

let conv2d_block_job ~inter_tile_reuse () =
  let t b = { Emsc_transform.Tile.block = b; mem = None; thread = None } in
  let spec = [| t (Some 8); t (Some 8); t None; t None |] in
  Pipeline.job
    ~options:
      { Options.default with
        find_band = false; tiling = Options.Spec spec; inter_tile_reuse }
    (Source.Program
       { name = "conv2d-reuse"; prog = Emsc_kernels.Conv2d.program ~n:32 ~kw:3 })

let test_inter_tile_matches_seq_and_moves_less () =
  let c = compiled (conv2d_block_job ~inter_tile_reuse:true ()) in
  (match c.Pipeline.plan with
   | Some p ->
     Alcotest.(check bool) "plan carries reuse" true
       (List.exists (fun (b : Plan.buffered) -> b.Plan.reuse <> None)
          p.Plan.buffered)
   | None -> Alcotest.fail "no plan");
  (* residency chains with delta movement stay bit-identical to the
     sequential interpreter across job counts *)
  let seq = simulate_seq c in
  check_same c.Pipeline.prog seq (simulate_par ~jobs:1 c);
  check_same c.Pipeline.prog seq (simulate_par ~jobs:3 c);
  (* and genuinely move less: the img halo columns and the whole w
     window stay resident between consecutive j-blocks *)
  let full = compiled (conv2d_block_job ~inter_tile_reuse:false ()) in
  let _, r_full = simulate_par ~jobs:3 full in
  let _, r_delta = simulate_par ~jobs:3 c in
  Alcotest.(check bool) "delta run loads strictly less" true
    (r_delta.Exec.totals.Exec.g_ld < r_full.Exec.totals.Exec.g_ld);
  Alcotest.(check (float 0.0)) "stores unchanged"
    r_full.Exec.totals.Exec.g_st r_delta.Exec.totals.Exec.g_st

(* --- pipeline splitter --------------------------------------------------- *)

let cref a = { Ast.array = a; indices = [| Ast.Const Zint.zero |] }
let copy_in = Ast.Copy { dst = cref "l_a"; src = cref "A" }
let copy_out = Ast.Copy { dst = cref "A"; src = cref "l_a" }
let call = Ast.Stmt_call { stmt_id = 1; iter_args = [||] }

let test_pipeline_phases_split () =
  let body = [ copy_in; Ast.Fence; call; Ast.Fence; copy_out ] in
  match Runtime.pipeline_phases body with
  | Some (ins, core, outs) ->
    (* fences travel with their movement phase so the three pieces
       re-concatenate to the original body — phase counter sums equal
       the unsplit execution *)
    Alcotest.(check bool) "reconstructs" true (ins @ core @ outs = body);
    Alcotest.(check bool) "move-in non-empty" true (ins <> []);
    Alcotest.(check bool) "core is the call" true (List.mem call core);
    Alcotest.(check bool) "move-out non-empty" true (outs <> [])
  | None -> Alcotest.fail "canonical body did not split"

let test_pipeline_phases_refuses_non_canonical () =
  Alcotest.(check bool) "no fences -> no pipeline" true
    (Runtime.pipeline_phases [ copy_in; call; copy_out ] = None);
  Alcotest.(check bool) "compute before fence -> no pipeline" true
    (Runtime.pipeline_phases [ call; Ast.Fence; call ] = None)

(* --- double-buffer capacity rule (satellite 1) --------------------------- *)

let no_params _ = failwith "no parameters"

let fig1_plan () =
  Plan.plan_block ~arch:`Cell ~merge_per_array:true
    Emsc_kernels.Fig1.program

let test_effective_smem_helpers () =
  Alcotest.(check int) "single" 100
    (Hierarchy.effective_words ~double_buffer:false 100);
  Alcotest.(check int) "double" 200
    (Hierarchy.effective_words ~double_buffer:true 100);
  Alcotest.(check int) "bytes" 800
    (Timing.effective_smem_bytes ~double_buffer:true ~word_bytes:4 100)

(* a plan that fits single-buffered but not double-buffered must fail
   the capacity invariant exactly when double_buffer is set *)
let test_double_buffer_capacity_regression () =
  let plan = fig1_plan () in
  let fp = Zint.to_int_exn (Plan.total_footprint plan no_params) in
  Alcotest.(check bool) "plan has a footprint" true (fp > 0);
  let cap = (2 * fp) - 1 in
  let capacity_violations ~double_buffer =
    List.filter (fun v -> v.Emsc_check.Invariants.invariant = "capacity")
      (Emsc_check.Invariants.check ~capacity_words:cap ~double_buffer
         ~env:no_params plan)
  in
  Alcotest.(check int) "fits single-buffered" 0
    (List.length (capacity_violations ~double_buffer:false));
  Alcotest.(check int) "exceeds double-buffered" 1
    (List.length (capacity_violations ~double_buffer:true))

(* --- runtime events integration ------------------------------------------ *)

module Ev = Emsc_obs.Events
module Rr = Emsc_obs.Runtime_report

(* instrumentation must be observationally free: an events-on pipelined
   run stays bit-identical to sequential, and the report it yields is
   internally consistent (every block accounted for, measured overlap
   within the model bound) *)
let test_events_on_bit_identical_with_report () =
  let c = compiled (Emsc_kernels.Matmul.job ~n:32 ()) in
  let seq = simulate_seq c in
  let par, report =
    Runner.with_runtime_report (fun () ->
      simulate_par ~double_buffer:true ~jobs:3 c)
  in
  check_same c.Pipeline.prog seq par;
  match report with
  | None -> Alcotest.fail "instrumented parallel run produced no report"
  | Some r ->
    Alcotest.(check int) "one stat per worker domain" 3
      (List.length r.Rr.domains);
    let blocks =
      List.fold_left (fun a d -> a + d.Rr.d_blocks) 0 r.Rr.domains
    in
    let _, r_par = par in
    let grid_blocks =
      List.fold_left
        (fun a (l : Exec.launch) -> a + int_of_float l.Exec.grid)
        0 r_par.Exec.launches
    in
    Alcotest.(check int) "every block left a compute event" grid_blocks
      blocks;
    Alcotest.(check bool) "staged words were counted" true
      (r.Rr.dma_words > 0.0);
    Alcotest.(check bool) "window covers the busy time" true
      (r.Rr.window_s > 0.0 && r.Rr.compute_busy_s <= r.Rr.window_s *. 3.0);
    Alcotest.(check bool) "critical path within the window" true
      (r.Rr.critical_path_s <= r.Rr.window_s +. 1e-9);
    (* the acceptance gate: achieved overlap never exceeds the bound *)
    let a = Emsc_audit.Overlap.audit ~double_buffer:true r in
    Alcotest.(check bool) "overlap audit not failing" true
      (Emsc_audit.Overlap.ok a)

(* with recording off, the backend registers no rings at all — the
   plain (uninstrumented) path runs and nothing is drainable *)
let test_events_off_leaves_no_tracks () =
  Ev.reset ();
  Alcotest.(check bool) "events disabled" false (Ev.enabled ());
  let c = compiled (Emsc_kernels.Matmul.job ~n:16 ()) in
  let seq = simulate_seq c in
  check_same c.Pipeline.prog seq (simulate_par ~double_buffer:true ~jobs:2 c);
  Alcotest.(check int) "no tracks recorded" 0 (List.length (Ev.drain ()))

(* --- oracle backend plumbing --------------------------------------------- *)

let test_oracle_parallel_backend () =
  let c = compiled (Emsc_kernels.Matmul.job ~n:16 ()) in
  (match Emsc_check.Oracle.check_compiled ~backend:(`Par 3)
           ~param_env:Runner.no_params c
   with
   | Ok () -> ()
   | Error r -> Alcotest.failf "parallel oracle failed: %s" r)

(* --- staged parallel runs vs the legacy interpreter ------------------------ *)

(* every parallel configuration against one sequential legacy run:
   arrays, counters, launches and movement tallies bit-identical *)
let parallel_configs =
  List.concat_map (fun jobs ->
    List.concat_map (fun policy ->
      List.map (fun double_buffer -> (jobs, policy, double_buffer)) [ false; true ])
      [ Runtime.Static; Runtime.Work_stealing ])
    [ 1; 2 ]

let check_parallel (k : Exec_diff.kernel) =
  if k.Exec_diff.independent && List.exists contains_launch k.Exec_diff.ast then begin
    let expected = Exec_diff.legacy ~mode:Exec.Full k in
    List.iter (fun (jobs, policy, double_buffer) ->
      let what =
        Printf.sprintf "%s j%d %s%s" k.Exec_diff.name jobs
          (match policy with Runtime.Static -> "static" | Runtime.Work_stealing -> "steal")
          (if double_buffer then " double-buffer" else "")
      in
      Exec_diff.check_same what expected
        (Exec_diff.parallel ~jobs ~policy ~double_buffer k))
      parallel_configs
  end

(* a fixed draw over a range whose programs all compile quickly *)
let qcheck_parallel_gen =
  QCheck.Test.make ~name:"parallel == legacy on Gen programs" ~count:100
    (QCheck.int_range 0 299)
    (fun i ->
      List.iter check_parallel (Exec_diff.gen_kernels ~launches:true i);
      true)

let test_parallel_suite () = List.iter check_parallel (Exec_diff.suite_kernels ())

(* --- staging ------------------------------------------------------------- *)

let stagings f =
  let module Prof = Emsc_obs.Prof in
  Prof.reset ();
  Prof.enable ();
  Fun.protect ~finally:Prof.disable f;
  List.fold_left (fun acc (fr : Prof.frame) ->
    acc +. Option.value ~default:0.0 (List.assoc_opt "exec.stagings" fr.Prof.f_counters))
    0.0 (Prof.snapshot ())

(* One run stages each distinct phase once, however many launches and
   blocks execute it: a launch body, or with double buffering its
   move-in, compute and move-out phases.  Here one launch of 8 blocks
   sits in a host loop, so its body runs [8 * trips] times. *)
let repeated_launch ~trips =
  let a_at = { Ast.array = "A"; indices = [| Ast.var "b" |] } in
  let l_at = { Ast.array = "l_a"; indices = [| Ast.var "b" |] } in
  [ Ast.loop_ "t" ~lb:(Ast.int_ 0) ~ub:(Ast.int_ (trips - 1))
      [ Ast.loop_ ~par:Ast.Block "b" ~lb:(Ast.int_ 0) ~ub:(Ast.int_ 7)
          [ Ast.Copy { dst = l_at; src = a_at }; Ast.Fence; Ast.Sync; Ast.Fence;
            Ast.Copy { dst = a_at; src = l_at } ] ] ]

let test_stages_once_per_phase () =
  let run ~trips ~double_buffer () =
    let m = Memory.create racy_prog ~param_env:no_params in
    Memory.declare_local m "l_a";
    let cfg = { (Runtime.default_cfg ~jobs:2) with Runtime.double_buffer } in
    let r =
      Runtime.run ~prog:racy_prog ~param_env:no_params ~memory:m ~cfg
        (repeated_launch ~trips)
    in
    Alcotest.(check int) "one launch per trip" trips (List.length r.Exec.launches)
  in
  Alcotest.(check (float 0.0)) "plain" 1.0 (stagings (run ~trips:3 ~double_buffer:false));
  Alcotest.(check (float 0.0)) "plain, more launches" 1.0
    (stagings (run ~trips:9 ~double_buffer:false));
  Alcotest.(check (float 0.0)) "double buffer: three phases" 3.0
    (stagings (run ~trips:9 ~double_buffer:true));
  (* the overlapped stencil emits one distinct launch per time tile *)
  let n = 1024 and steps = 16 and ts = 64 and tt = 4 in
  let prog = Emsc_kernels.Jacobi1d.program ~n ~steps in
  let k = Emsc_transform.Stencil.overlapped_1d ~n ~steps ~ts ~tt prog in
  let tiles = float_of_int k.Emsc_transform.Stencil.time_tiles in
  let stencil ~double_buffer () =
    ignore
      (Runner.execute ~prog ~local_ref:k.Emsc_transform.Stencil.local_ref
         ~locals:k.Emsc_transform.Stencil.locals ~mode:Exec.Full
         ~memory:Runner.Pseudorandom ~backend:(`Par 2) ~double_buffer
         ~block_words:k.Emsc_transform.Stencil.smem_words k.Emsc_transform.Stencil.ast)
  in
  Alcotest.(check (float 0.0)) "stencil: one per launch" tiles
    (stagings (stencil ~double_buffer:false));
  Alcotest.(check (float 0.0)) "stencil double buffer: three per launch" (3.0 *. tiles)
    (stagings (stencil ~double_buffer:true));
  let c = compiled (Emsc_kernels.Matmul.job ~n:16 ()) in
  Alcotest.(check (float 0.0)) "sequential run: once" 1.0
    (stagings (fun () -> ignore (simulate_seq c)))

let () =
  Alcotest.run "runtime"
    [ ( "parallel-vs-sequential",
        [ Alcotest.test_case "matmul" `Quick test_par_matches_seq_matmul;
          Alcotest.test_case "me" `Quick test_par_matches_seq_me;
          Alcotest.test_case "policies+double-buffer" `Quick
            test_policies_and_double_buffer_match;
          Alcotest.test_case "totals invariant in -j" `Quick
            test_totals_invariant_in_jobs;
          Alcotest.test_case "stencil multi-launch" `Quick
            test_stencil_multi_launch ] );
      ( "ownership",
        [ Alcotest.test_case "tracker catches race" `Quick
            test_tracker_catches_race;
          Alcotest.test_case "tracker off by default" `Quick
            test_tracker_off_by_default ] );
      ( "arena",
        [ Alcotest.test_case "typed capacity error" `Quick
            test_arena_capacity_typed_error;
          Alcotest.test_case "idempotent release + peaks" `Quick
            test_arena_release_idempotent_and_peak;
          Alcotest.test_case "occupancy cap" `Quick
            test_arena_blocks_then_proceeds;
          Alcotest.test_case "fork-failure hammer" `Quick
            test_arena_fork_failure_hammer;
          Alcotest.test_case "acquire_all transactional" `Quick
            test_arena_acquire_all_transactional;
          Alcotest.test_case "acquire_all rollback" `Quick
            test_arena_acquire_all_rollback ] );
      ( "inter-tile-reuse",
        [ Alcotest.test_case "bit-identical + strictly fewer loads" `Quick
            test_inter_tile_matches_seq_and_moves_less ] );
      ( "pipeline",
        [ Alcotest.test_case "splits canonical body" `Quick
            test_pipeline_phases_split;
          Alcotest.test_case "refuses non-canonical" `Quick
            test_pipeline_phases_refuses_non_canonical ] );
      ( "capacity",
        [ Alcotest.test_case "effective smem helpers" `Quick
            test_effective_smem_helpers;
          Alcotest.test_case "double-buffer regression" `Quick
            test_double_buffer_capacity_regression ] );
      ( "events",
        [ Alcotest.test_case "on: bit-identical + report" `Quick
            test_events_on_bit_identical_with_report;
          Alcotest.test_case "off: no tracks" `Quick
            test_events_off_leaves_no_tracks ] );
      ( "oracle",
        [ Alcotest.test_case "parallel backend" `Quick
            test_oracle_parallel_backend ] );
      ( "staged-vs-legacy",
        [ QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 13 |])
            qcheck_parallel_gen;
          Alcotest.test_case "suite" `Quick test_parallel_suite;
          Alcotest.test_case "stages once per phase" `Quick
            test_stages_once_per_phase ] ) ]
