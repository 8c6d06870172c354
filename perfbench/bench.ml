(* The repository benchmark: one workload per process.

     bench.exe --workload W --seed N --seconds S --trace 0|1 [--smoke]
     bench.exe --write-expected FILE

   Workloads (why each was chosen is in BENCHMARK.json):
   - compile-cold: cold full-pipeline compiles of the example programs,
     the kernel suite and one Section 4.3 tile-size search;
   - execute: kernels compiled during set-up, run at Full fidelity under
     four series (reference interpreter, sequential simulator, parallel
     runtime on 1 and 2 domains);
   - check-fuzz: random programs from `emsc check`'s default draw,
     compiled under its planner settings and validated by the oracle
     and the invariants;
   - serve-warm: an in-process compile daemon on a warm, LRU-capped
     cache under a closed loop on one client connection.

   The seed draws serve-warm's request stream; the other workloads run
   fixed inputs in a fixed order.  With --trace 0 every instrument of the program is
   off and the last line of stdout carries the end-to-end metrics.
   With --trace 1 the run traces the same operations and reports the
   per-layer metrics instead: the benchmark's own spans around each
   call into a layer, plus the counters the program already keeps
   (self-profiler calls and counters, executor counters, runtime
   reports).  Every output is checked outside the timed region; a
   wrong output is a failed operation. *)

open Emsc_driver
open Emsc_kernels
module J = Emsc_obs.Json
module Prof = Emsc_obs.Prof
module Check = Emsc_check

let now = Unix.gettimeofday
let pf = Printf.printf

(* ------------------------------------------------------------------ *)
(* Metric names and units; BENCHMARK.json lists the same.              *)
(* ------------------------------------------------------------------ *)

let end_to_end =
  [ ("wall_s", "s"); ("geomean_ms", "ms"); ("peak_heap_mb", "MB"); ("setup_s", "s") ]

let per_layer =
  [ ("lang.parse_ms", "ms"); ("ir.deps_ms", "ms");
    ("transform.hyperplanes_ms", "ms"); ("transform.tilesearch_ms", "ms");
    ("core.plan_ms", "ms"); ("codegen.scan_ms", "ms");
    ("poly.simplex_calls", "count"); ("poly.simplex_pivots", "count");
    ("poly.simplex_self_ms", "ms"); ("poly.us_per_pivot", "us");
    ("poly.remove_redundant_calls", "count"); ("poly.is_empty_calls", "count");
    ("pip.ilp_calls", "count"); ("pip.nodes", "count");
    ("machine.reference_ms", "ms"); ("machine.reference_lps", "count");
    ("machine.reference_ns_per_instance", "ns"); ("machine.exec_ms", "ms");
    ("machine.exec_ns_per_instance", "ns"); ("machine.instances", "count");
    ("runtime.j1_overhead_frac", "ratio"); ("runtime.j2_speedup", "ratio");
    ("runtime.dma_words", "count"); ("runtime.busy_ms", "ms");
    ("runtime.dma_wait_ms", "ms"); ("runtime.idle_ms", "ms");
    ("runtime.sched_ms", "ms"); ("check.compile_ms", "ms");
    ("check.oracle_ms", "ms"); ("check.invariants_ms", "ms");
    ("check.checks", "count"); ("serve.execute_ms", "ms");
    ("serve.overhead_ms", "ms"); ("serve.p50_ms", "ms"); ("serve.p90_ms", "ms");
    ("serve.p99_ms", "ms"); ("serve.ops_per_s", "1/s");
    ("driver.cache_hot_hit_rate", "ratio");
    ("driver.cache_disk_hit_rate", "ratio");
    ("driver.cache_evictions", "count"); ("driver.unattributed_frac", "ratio");
    ("trace.overhead_frac", "ratio"); ("bench.flagged_counts", "count") ]

(* counts the program derives from its input alone: the two traced
   passes must read them identically *)
let exact_counts =
  [ "poly.simplex_calls"; "poly.simplex_pivots"; "poly.remove_redundant_calls";
    "poly.is_empty_calls"; "pip.ilp_calls"; "pip.nodes";
    "machine.reference_lps"; "machine.instances"; "runtime.dma_words";
    "check.checks" ]

(* the closure check flags a traced pass whose layer spans leave more
   than this share of its wall time unattributed *)
let closure_margin = 0.05

(* ------------------------------------------------------------------ *)
(* Operations and the timed loop                                       *)
(* ------------------------------------------------------------------ *)

(* [run] is the timed call; the check it returns runs untimed. *)
type op = { input : string; run : unit -> unit -> (unit, string) result }

let op_id = ref 0

(* Each operation starts after a full collection, so garbage one
   operation leaves is not collected on the next one's time. *)
let run_op op =
  incr op_id;
  Span.set_op !op_id;
  Gc.compact ();
  let t0 = now () in
  match op.run () with
  | check ->
    let dt = now () -. t0 in
    (match check () with
     | Ok () -> Ok dt
     | Error m -> Error (op.input ^ ": " ^ m)
     | exception e -> Error (op.input ^ ": " ^ Printexc.to_string e))
  | exception e -> Error (op.input ^ ": " ^ Printexc.to_string e)

type samples = {
  per_input : float list array;  (** seconds, successful operations *)
  mutable attempted : int;
  mutable failures : string list;
}

let fresh_samples n = { per_input = Array.make n []; attempted = 0; failures = [] }

let attempt s i op =
  s.attempted <- s.attempted + 1;
  match run_op op with
  | Ok dt -> s.per_input.(i) <- dt :: s.per_input.(i)
  | Error m -> s.failures <- m :: s.failures

(* Whole passes over every operation, in input order, for as long as
   one more pass fits in [seconds] (at least one), so every input is
   sampled equally often.  The order is fixed: with seed-shuffled
   passes the GC's high-water mark on execute fell into one of two
   modes (60 or 75 MB) depending on the order. *)
let timed_loop ~seconds ops =
  let s = fresh_samples (Array.length ops) in
  let t_start = now () in
  let rec passes last =
    if last = 0.0 || now () -. t_start +. last <= seconds then begin
      let t0 = now () in
      Array.iteri (fun i op -> attempt s i op) ops;
      passes (now () -. t0)
    end
  in
  passes 0.0;
  s

let medians ops s =
  List.concat
    (List.mapi (fun i xs ->
       match xs with [] -> [] | _ -> [ (ops.(i).input, Stats.median xs, List.length xs) ])
       (Array.to_list s.per_input))

(* ------------------------------------------------------------------ *)
(* Set-up: repeated, median reported                                   *)
(* ------------------------------------------------------------------ *)

(* At least three set-ups, up to seven while they total under 2 s; all
   but the last are torn down. *)
let timed_setup ~setup ~teardown =
  let rec go acc =
    let t0 = now () in
    let st = setup () in
    let dt = now () -. t0 in
    let acc = dt :: acc in
    let n = List.length acc in
    if n >= 7 || (n >= 3 && Stats.sum acc >= 2.0) then (st, acc)
    else begin
      teardown st;
      go acc
    end
  in
  let st, times = go [] in
  pf "setup: %d repetitions, median %.4f s\n" (List.length times)
    (Stats.median times);
  (st, Stats.median times)

(* ------------------------------------------------------------------ *)
(* Reading the traced pass                                             *)
(* ------------------------------------------------------------------ *)

let leaf (f : Prof.frame) =
  match List.rev f.Prof.f_stack with l :: _ -> l | [] -> ""

let sum_frames prof g = List.fold_left (fun acc f -> acc +. g f) 0.0 prof

(* [g] summed over the frames whose label starts with [prefix] and that
   are not nested in another such frame, so recursion counts once *)
let outer prof prefix g =
  let matches l = String.starts_with ~prefix l in
  sum_frames prof (fun f ->
    match List.rev f.Prof.f_stack with
    | l :: ancestors when matches l && not (List.exists matches ancestors) -> g f
    | _ -> 0.0)

let outer_ms prof prefix = 1000.0 *. outer prof prefix (fun f -> f.Prof.f_total_s)
let outer_calls prof prefix = outer prof prefix (fun f -> float_of_int f.Prof.f_calls)

let calls ?under prof label =
  sum_frames prof (fun f ->
    if leaf f = label
       && (match under with
           | None -> true
           | Some a -> List.mem a f.Prof.f_stack)
    then float_of_int f.Prof.f_calls
    else 0.0)

let self_ms prof label =
  1000.0 *. sum_frames prof (fun f -> if leaf f = label then f.Prof.f_self_s else 0.0)

let counter ?under prof name =
  sum_frames prof (fun f ->
    if match under with None -> true | Some a -> List.mem a f.Prof.f_stack
    then Option.value ~default:0.0 (List.assoc_opt name f.Prof.f_counters)
    else 0.0)

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* Per-layer readings of one traced pass that every workload shares. *)
let layer_metrics prof =
  let pivots = counter prof "simplex.pivots" in
  let simplex_self = self_ms prof "simplex.minimize" in
  let ref_ms = outer_ms prof "machine.reference" in
  let ref_inst = counter ~under:"machine.reference" prof "bench.instances" in
  let exec_ms = outer_ms prof "machine.simulate" in
  let exec_inst = counter ~under:"machine.simulate" prof "bench.instances" in
  [ ("lang.parse_ms", outer_ms prof "driver.parse");
    ("ir.deps_ms", outer_ms prof "driver.deps");
    ("transform.hyperplanes_ms", outer_ms prof "driver.hyperplanes");
    ("transform.tilesearch_ms", outer_ms prof "driver.tilesearch");
    ("core.plan_ms", outer_ms prof "driver.plan");
    ("codegen.scan_ms", outer_ms prof "scan.");
    ("poly.simplex_calls", calls prof "simplex.minimize");
    ("poly.simplex_pivots", pivots);
    ("poly.simplex_self_ms", simplex_self);
    ("poly.us_per_pivot", 1000.0 *. ratio simplex_self pivots);
    ("poly.remove_redundant_calls", calls prof "poly.remove_redundant");
    ("poly.is_empty_calls", calls prof "poly.is_empty");
    ("pip.ilp_calls", outer_calls prof "pip.");
    ("pip.nodes", counter prof "pip.nodes");
    ("machine.reference_ms", ref_ms);
    ("machine.reference_lps",
     calls ~under:"machine.reference" prof "simplex.minimize");
    ("machine.reference_ns_per_instance", 1e6 *. ratio ref_ms ref_inst);
    ("machine.exec_ms", exec_ms);
    ("machine.exec_ns_per_instance", 1e6 *. ratio exec_ms exec_inst);
    ("machine.instances", counter prof "bench.instances");
    ("runtime.dma_words", counter prof "bench.dma_words");
    ("check.compile_ms", outer_ms prof "check.compile");
    ("check.oracle_ms", outer_ms prof "check.oracle");
    ("check.invariants_ms", outer_ms prof "check.invariants");
    ("check.checks", counter prof "bench.checks") ]

(* Tracing: the self-profiler, the metrics registry and the benchmark's
   spans, all on or all off.  Recorded data survives switching off. *)
let with_instruments f =
  Prof.enable ();
  Emsc_obs.Metrics.enable ();
  Span.enable ();
  Fun.protect
    ~finally:(fun () ->
      Span.disable ();
      Emsc_obs.Metrics.disable ();
      Prof.disable ())
    f

let start_traced_pass () =
  Prof.reset ();
  Emsc_obs.Metrics.reset ()

(* the root spans of the sequential workloads, one per operation *)
let roots =
  [ "driver.compile"; "machine.reference"; "machine.simulate"; "runtime.run"; "check.case" ]

(* spans around a whole pipeline call: their self time is the part of
   the call that no stage or primitive of the program accounts for *)
let containers = [ "driver.compile"; "check.case"; "check.compile" ]

(* Closure check: the share of the traced operations' [wall] that no
   layer's self time covers — time outside the spans plus the self time
   of container spans. *)
let unattributed prof ~wall =
  let attributed =
    sum_frames prof (fun f ->
      match f.Prof.f_stack with
      | root :: _ when List.mem root roots && not (List.mem (leaf f) containers) ->
        f.Prof.f_self_s
      | _ -> 0.0)
  in
  max 0.0 (1.0 -. ratio attributed wall)

(* Exact counts that differ between the two traced passes. *)
let flag_counts a b =
  List.filter (fun name ->
    let get l = List.assoc_opt name l in
    get a <> get b)
    exact_counts

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

let heap_mb () =
  let st = Gc.quick_stat () in
  float_of_int (st.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

type outcome = {
  attempted : int;
  failures : string list;
  metrics : (string * float) list;
}

(* [default] stands in for a per-layer metric the workload does not
   exercise *)
let print_result ?default ~units (o : outcome) =
  let failed = List.length o.failures in
  List.iter (fun m -> pf "FAIL %s\n" m) (List.rev o.failures);
  pf "fail_rate %.6f (%d of %d)\n" (ratio (float_of_int failed) (float_of_int o.attempted))
    failed o.attempted;
  let metrics =
    List.map (fun (name, unit_) ->
      let v =
        match (List.assoc_opt name o.metrics, default) with
        | Some v, _ | None, Some v -> v
        | None, None -> failwith ("bench: metric not measured: " ^ name)
      in
      (name, J.Obj [ ("value", J.Float v); ("unit", J.Str unit_) ]))
      units
  in
  print_endline
    (J.to_string
       (J.Obj
          [ ("correct", J.Bool (failed = 0)); ("attempted", J.Int o.attempted);
            ("failed", J.Int failed); ("metrics", J.Obj metrics) ]))

let print_rows rows =
  List.iter (fun (input, med, n) ->
    pf "row %-28s median %10.3f ms  (n=%d)\n" input (med *. 1000.0) n)
    rows

(* End-to-end metrics of a sequential workload from its timed loop:
   each input's median stands for it, and wall is one pass over the
   inputs. *)
let sequential_metrics ops s =
  let rows = medians ops s in
  print_rows rows;
  let meds = List.map (fun (_, m, _) -> m) rows in
  [ ("wall_s", Stats.sum meds); ("geomean_ms", 1000.0 *. Stats.geomean meds) ]

(* ------------------------------------------------------------------ *)
(* Driving a sequential workload                                       *)
(* ------------------------------------------------------------------ *)

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  smoke : bool;
  out_dir : string;
}

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let write_spans args =
  mkdir_p args.out_dir;
  let path =
    Filename.concat args.out_dir
      (Printf.sprintf "spans-%s-seed%d.json" args.workload args.seed)
  in
  Span.write path;
  pf "spans: %d written to %s\n" (List.length (Span.all ())) path

let report_trace ~metrics ~flagged ~unattr ~overhead =
  List.iter (fun c -> pf "FLAG exact count differs between traced passes: %s\n" c) flagged;
  pf "closure: %.1f%% of the traced wall not attributed to a layer (margin %.0f%%)%s\n"
    (100.0 *. unattr) (100.0 *. closure_margin)
    (if unattr > closure_margin then "  FLAG: above margin" else "");
  pf "trace overhead: %+.1f%%\n" (100.0 *. overhead);
  metrics
  @ [ ("driver.unattributed_frac", unattr); ("trace.overhead_frac", overhead);
      ("bench.flagged_counts", float_of_int (List.length flagged)) ]

let total_s (s : samples) = Stats.sum (List.concat (Array.to_list s.per_input))

(* With --trace 1, pass 1 alternates an untraced and a traced run of
   each operation, so the trace overhead compares runs in the same warm
   state; pass 2 repeats the traced runs alone for the determinism
   check.  [extra] reads workload-specific layer metrics after each
   traced pass, given the untraced runs. *)
let run_sequential args ~setup ~teardown ~ops_of ~finish
    ?(extra = fun ~untraced:_ _ -> []) () =
  let st, setup_s = timed_setup ~setup ~teardown in
  let ops = ops_of st in
  let n = Array.length ops in
  if not args.trace then begin
    let s = timed_loop ~seconds:args.seconds ops in
    let heap = heap_mb () in
    let final = finish st in
    let metrics =
      sequential_metrics ops s @ [ ("setup_s", setup_s); ("peak_heap_mb", heap) ]
    in
    print_result ~units:end_to_end
      { attempted = s.attempted; failures = s.failures @ final; metrics }
  end
  else begin
    let order = Array.init n Fun.id in
    let s0 = fresh_samples n and s1 = fresh_samples n and s2 = fresh_samples n in
    start_traced_pass ();
    Array.iteri (fun k i ->
      let plain () = attempt s0 i ops.(i) in
      let traced () = with_instruments (fun () -> attempt s1 i ops.(i)) in
      if k mod 2 = 0 then (plain (); traced ()) else (traced (); plain ()))
      order;
    let prof1 = Prof.snapshot () in
    let l1 = layer_metrics prof1 @ extra ~untraced:s0 ops in
    start_traced_pass ();
    with_instruments (fun () -> Array.iter (fun i -> attempt s2 i ops.(i)) order);
    let l2 = layer_metrics (Prof.snapshot ()) @ extra ~untraced:s0 ops in
    let final = finish st in
    let metrics =
      report_trace ~metrics:l1 ~flagged:(flag_counts l1 l2)
        ~unattr:(unattributed prof1 ~wall:(total_s s1))
        ~overhead:((total_s s1 /. total_s s0) -. 1.0)
    in
    write_spans args;
    print_result ~default:0.0 ~units:per_layer
      { attempted = s0.attempted + s1.attempted + s2.attempted;
        failures = s0.failures @ s1.failures @ s2.failures @ final;
        metrics }
  end

(* ------------------------------------------------------------------ *)
(* compile-cold                                                        *)
(* ------------------------------------------------------------------ *)

let ok_or_fail = function
  | Ok c -> c
  | Error e -> failwith (Frontend.error_message e)

(* `emsc check`'s plan valuation: program parameters from [param_env],
   tile origins at the lower bound of the origin context *)
let invariant_env (c : Pipeline.compiled) param_env =
  match c.Pipeline.tiled with
  | None -> param_env
  | Some t ->
    let tp = t.Pipeline.tiled_prog in
    let bound = Hashtbl.create 8 in
    Array.iteri (fun k name ->
      match Emsc_poly.Poly.var_bounds_int t.Pipeline.context k with
      | Some lb, _ -> Hashtbl.replace bound name lb
      | None, _ -> ())
      tp.Emsc_ir.Prog.params;
    fun name ->
      match Hashtbl.find_opt bound name with
      | Some v -> v
      | None -> param_env name

let capacity_words = 4096  (* the GTX 8800 scratchpad, `emsc check`'s default *)

let invariants ?(capacity_words = capacity_words) ~param_env (c : Pipeline.compiled) =
  match c.Pipeline.plan with
  | None -> Error "no plan"
  | Some plan ->
    (match
       Check.Invariants.check ~capacity_words
         ~optimized_movement:c.Pipeline.options.Options.optimize_movement
         ~env:(invariant_env c param_env) plan
     with
     | [] -> Ok ()
     | vs ->
       Error
         (String.concat "; "
            (List.map (Format.asprintf "%a" Check.Invariants.pp_violation) vs)))

(* what a compilation produced: the served compile payload (plan,
   kernel, movement) when there is a plan, else dependences and band *)
let compiled_digest (c : Pipeline.compiled) =
  let payload =
    match c.Pipeline.plan with
    | Some _ ->
      J.to_string (Emsc_serve.Protocol.compile_result ~capacity_words c)
    | None -> Marshal.to_string (c.Pipeline.deps, c.Pipeline.band) [ Marshal.No_sharing ]
  in
  Digest.to_hex (Digest.string payload)

(* The fig6 Mpeg4 ME tile-size search, shrunk to a 16 x 16 frame and
   two candidate memory tiles: the search's cost is in the exact LPs
   over the tile-parametric data spaces, which do not grow with the
   frame, and the small frame keeps the oracle check affordable. *)
let search_job () =
  let ni = 16 and nj = 16 and ws = 16 in
  let hier = Emsc_machine.Hierarchy.gtx8800 in
  let search =
    { Options.search_block = [| Some ((ni + 7) / 8); Some ((nj + 3) / 4); None; None |];
      search_ranges = [| (8, 8); (8, 16); (ws, ws); (ws, ws) |];
      search_mem_limit_words = Emsc_machine.Hierarchy.staging_capacity_words hier;
      search_threads = 256.0;
      search_sync_cost = 40.0;
      search_transfer_cost = 4.0;
      search_max_evals = 60;
      search_snap_pow2 = true }
  in
  Pipeline.job
    ~options:
      { Options.default with
        arch = `Gpu; find_band = false; tiling = Options.Search search }
    (Source.Program { name = "me-search"; prog = Me.program ~ni ~nj ~ws })

let examples = [ "conv2d.emsc"; "fig1.emsc"; "jacobi.emsc"; "matmul.emsc" ]

type cold_input = {
  job : Pipeline.job;
  mutable first : Pipeline.compiled option;
  mutable digests : string list;  (** one per repetition *)
}

(* Reads the sources, then compiles the smallest one once, so one-time
   process costs are not charged to the first input. *)
let compile_cold_setup ~smoke () =
  let read f =
    let text = ok_or_fail (Frontend.read_file (Filename.concat "examples/programs" f)) in
    ignore (ok_or_fail (Frontend.parse ~name:f text));
    Pipeline.job (Source.Text { name = f; text })
  in
  let warm_up = read "fig1.emsc" in
  ignore (ok_or_fail (Pipeline.compile ~cache:Cache.off warm_up));
  let suite = Suite.jobs () in
  (if smoke then
     List.map read [ "fig1.emsc"; "jacobi.emsc" ]
     @ List.filter (fun (j : Pipeline.job) ->
         List.mem (Source.name j.Pipeline.source) [ "fig1"; "jacobi1d-n64-s8" ])
         suite
   else List.map read examples @ suite @ [ search_job () ])
  |> List.map (fun job -> { job; first = None; digests = [] })
  |> Array.of_list

let compile_op inp =
  { input = Source.name inp.job.Pipeline.source;
    run = (fun () ->
      let r =
        Span.run "driver.compile" (fun () -> Pipeline.compile ~cache:Cache.off inp.job)
      in
      fun () ->
        match r with
        | Error e -> Error (Frontend.error_message e)
        | Ok c ->
          inp.digests <- compiled_digest c :: inp.digests;
          if inp.first = None then inp.first <- Some c;
          Ok ()) }

(* Every repetition compiled to the same plan and code, each plan keeps
   its invariants, and the compiled program computes what the source
   does.  An untiled plan stages whole arrays, so whether it fits the
   scratchpad is the tiler's concern: capacity is checked on tiled
   plans only. *)
let compile_cold_check inp =
  let name = Source.name inp.job.Pipeline.source in
  let fail m = [ name ^ ": " ^ m ] in
  match inp.first with
  | None -> []
  | Some c ->
    (match List.sort_uniq compare inp.digests with
     | [ _ ] -> []
     | _ -> fail "plan/kernel digest differs across repetitions")
    @
    (match c.Pipeline.plan with
     | None -> []
     | Some _ ->
       let capacity_words = if c.Pipeline.tiled = None then max_int else capacity_words in
       (match invariants ~capacity_words ~param_env:Runner.zero_env c with
        | Ok () -> []
        | Error m -> fail ("invariants: " ^ m))
       @
       (match Check.Oracle.check_compiled ~param_env:Runner.zero_env c with
        | Ok () -> []
        | Error m -> fail ("oracle: " ^ m)))

let compile_cold args =
  run_sequential args
    ~setup:(compile_cold_setup ~smoke:args.smoke)
    ~teardown:ignore
    ~ops_of:(Array.map compile_op)
    ~finish:(fun inputs ->
      List.concat_map (fun inp ->
        let t0 = now () in
        let r = compile_cold_check inp in
        pf "check %-26s %8.1f ms\n" (Source.name inp.job.Pipeline.source) (1000.0 *. (now () -. t0));
        r) (Array.to_list inputs))
    ()

(* ------------------------------------------------------------------ *)
(* execute                                                             *)
(* ------------------------------------------------------------------ *)

type series = Reference | Seq | Par of int

let series_name = function
  | Reference -> "reference"
  | Seq -> "seq"
  | Par j -> Printf.sprintf "par-j%d" j

let all_series = [ Reference; Seq; Par 1; Par 2 ]

type kernel = {
  kname : string;
  prog : Emsc_ir.Prog.t;  (** the original program *)
  checked : string list;  (** arrays whose contents are compared *)
  instances : float;      (** statement instances of one run; traced runs only *)
  simulate : Runner.backend -> Emsc_machine.Memory.t;
}

(* Pseudorandom contents that differ between arrays of one shape:
   Runner's own Pseudorandom fill depends on the index alone, which
   gives ME two identical frames and an all-zero difference. *)
let memory (p : Emsc_ir.Prog.t) =
  Runner.Filled
    (List.map (fun (d : Emsc_ir.Prog.array_decl) ->
       let name = d.Emsc_ir.Prog.array_name in
       ( name,
         fun idx ->
           let h = Array.fold_left (fun acc i -> (acc * 31) + i) (Hashtbl.hash name) idx in
           float_of_int ((h land max_int) mod 101) /. 101.0 ))
       p.Emsc_ir.Prog.arrays)

let instances (p : Emsc_ir.Prog.t) =
  List.fold_left (fun acc (s : Emsc_ir.Prog.stmt) ->
    acc +. Emsc_poly.Count.to_float (Emsc_poly.Count.count_poly s.Emsc_ir.Prog.domain))
    0.0 p.Emsc_ir.Prog.stmts

let array_names (p : Emsc_ir.Prog.t) =
  List.map (fun (d : Emsc_ir.Prog.array_decl) -> d.Emsc_ir.Prog.array_name)
    p.Emsc_ir.Prog.arrays

let compiled_kernel ~count kname job =
  let c = ok_or_fail (Pipeline.compile ~cache:Cache.off job) in
  let prog = c.Pipeline.prog in
  { kname; prog; checked = array_names prog; instances = count prog;
    simulate = (fun backend ->
      fst
        (Runner.simulate ~mode:Emsc_machine.Exec.Full ~memory:(memory prog)
           ~backend c)) }

(* the overlapped stencil never writes its temporary [nxt] back to
   global memory (Section 3.1.4 liveness), so only [cur] is compared *)
let stencil_kernel ~count kname ~n ~steps ~ts ~tt =
  let prog = Jacobi1d.program ~n ~steps in
  let k = Emsc_transform.Stencil.overlapped_1d ~n ~steps ~ts ~tt prog in
  { kname; prog; checked = [ "cur" ]; instances = count prog;
    simulate = (fun backend ->
      fst
        (Runner.execute ~prog ~local_ref:k.Emsc_transform.Stencil.local_ref
           ~locals:k.Emsc_transform.Stencil.locals ~mode:Emsc_machine.Exec.Full
           ~memory:(memory prog) ~backend
           ~block_words:k.Emsc_transform.Stencil.smem_words
           k.Emsc_transform.Stencil.ast)) }

(* Compiled once in set-up.  Statement instances are counted only for
   the traced run, which alone reports per-instance costs. *)
let kernels ~smoke ~traced () =
  let count = if traced then instances else fun _ -> 0.0 in
  if smoke then
    [ compiled_kernel ~count "matmul-8" (Matmul.job ~n:8 ());
      compiled_kernel ~count "me-8" (Me.job ~ni:8 ~nj:8 ~ws:4 ~tiles:(4, 4, 4, 4) ());
      stencil_kernel ~count "jacobi-256" ~n:256 ~steps:8 ~ts:32 ~tt:4 ]
  else
    [ compiled_kernel ~count "matmul-32" (Matmul.job ~n:32 ());
      compiled_kernel ~count "me-32" (Me.job ~ni:32 ~nj:32 ~ws:8 ());
      stencil_kernel ~count "jacobi-2048" ~n:2048 ~steps:32 ~ts:64 ~tt:8 ]

let array_digest m name =
  let a = Emsc_machine.Memory.global_data m name in
  let b = Buffer.create (8 * Array.length a) in
  Array.iter (fun x -> Buffer.add_int64_le b (Int64.bits_of_float x)) a;
  Digest.to_hex (Digest.string (Buffer.contents b))

let expected_file = "perfbench/expected-execute.txt"

(* "<kernel> <array> <digest>" lines; '#' starts a comment *)
let load_expected () =
  let text = ok_or_fail (Frontend.read_file expected_file) in
  List.filter_map (fun line ->
    match String.split_on_char ' ' (String.trim line) with
    | [ k; a; d ] when k <> "" && k.[0] <> '#' -> Some ((k, a), d)
    | _ -> None)
    (String.split_on_char '\n' text)

let reference_memory (k : kernel) =
  fst (Runner.reference ~memory:(memory k.prog) k.prog)

(* Regenerate the expected digests from the reference interpreter. *)
let write_expected path =
  let oc = open_out path in
  output_string oc
    "# Per-array digests of the execute workload's outputs, from the\n\
     # reference interpreter on pseudorandom inputs.  Regenerate with\n\
     # bench.exe --write-expected perfbench/expected-execute.txt\n";
  List.iter (fun (k : kernel) ->
    let m = reference_memory k in
    List.iter (fun a -> Printf.fprintf oc "%s %s %s\n" k.kname a (array_digest m a))
      k.checked)
    (kernels ~smoke:false ~traced:false () @ kernels ~smoke:true ~traced:false ());
  close_out oc

(* words the movement code copied between global memory and the
   scratchpads, from the executor's counters *)
let moved_words (snap : Emsc_obs.Metrics.snapshot) =
  Stats.sum
    (List.filter_map (fun (x : Emsc_obs.Metrics.sample) ->
       match x.Emsc_obs.Metrics.m_value with
       | Emsc_obs.Metrics.Counter v
         when List.mem x.Emsc_obs.Metrics.m_name [ "exec.move_in_words"; "exec.move_out_words" ] ->
         Some v
       | _ -> None)
       snap.Emsc_obs.Metrics.samples)

(* runtime reports of the traced pass's parallel runs *)
let runtime_reports : Emsc_obs.Runtime_report.t list ref = ref []

let execute_op expected (k : kernel) series =
  let run () =
    match series with
    | Reference ->
      Span.run "machine.reference" (fun () ->
        Prof.add "bench.instances" k.instances;
        reference_memory k)
    | Seq ->
      Span.run "machine.simulate" (fun () ->
        Prof.add "bench.instances" k.instances;
        k.simulate `Seq)
    | Par j ->
      Span.run "runtime.run" (fun () ->
        Prof.add "bench.instances" k.instances;
        if Span.enabled () then begin
          let before = Emsc_obs.Metrics.snapshot () in
          let m, report = Runner.with_runtime_report (fun () -> k.simulate (`Par j)) in
          Option.iter (fun r -> runtime_reports := r :: !runtime_reports) report;
          Prof.add "bench.dma_words"
            (moved_words (Emsc_obs.Metrics.diff before (Emsc_obs.Metrics.snapshot ())));
          m
        end
        else k.simulate (`Par j))
  in
  { input = k.kname ^ "." ^ series_name series;
    run = (fun () ->
      let m = run () in
      fun () ->
        match
          List.find_opt (fun a ->
            List.assoc_opt (k.kname, a) expected <> Some (array_digest m a))
            k.checked
        with
        | None -> Ok ()
        | Some a -> Error ("array " ^ a ^ " differs from the expected digest")) }

(* scheduling and overhead of the parallel runtime, from the untraced
   pass (ratios) and the traced pass's runtime reports (busy/wait) *)
let runtime_metrics ~(untraced : samples) ops =
  let total series =
    Stats.sum
      (List.concat
         (List.mapi (fun i xs -> if Filename.check_suffix ops.(i).input series then xs else [])
            (Array.to_list untraced.per_input)))
  in
  let seq = total ".seq" and j1 = total ".par-j1" and j2 = total ".par-j2" in
  let reps = !runtime_reports in
  runtime_reports := [];
  let open Emsc_obs.Runtime_report in
  let over_domains g =
    1000.0 *. Stats.sum (List.concat_map (fun r -> List.map (g r) r.domains) reps)
  in
  [ ("runtime.j1_overhead_frac", ratio j1 seq -. 1.0);
    ("runtime.j2_speedup", ratio seq j2);
    ("runtime.busy_ms", over_domains (fun _ d -> d.d_busy_s));
    ("runtime.dma_wait_ms", over_domains (fun _ d -> d.d_dma_wait_s));
    ("runtime.idle_ms", over_domains (fun _ d -> d.d_idle_s));
    ("runtime.sched_ms", over_domains (fun r d -> r.window_s -. d.d_busy_s)) ]

let execute args =
  let expected = load_expected () in
  run_sequential args
    ~setup:(kernels ~smoke:args.smoke ~traced:args.trace)
    ~teardown:ignore
    ~ops_of:(fun ks ->
      Array.of_list
        (List.concat_map (fun k -> List.map (execute_op expected k) all_series) ks))
    ~finish:(fun _ -> [])
    ~extra:runtime_metrics ()

(* ------------------------------------------------------------------ *)
(* check-fuzz                                                          *)
(* ------------------------------------------------------------------ *)

(* The planner settings `emsc check` validates each generated program
   under (Emsc_check.Fuzz, without inter-tile reuse): four untiled
   settings, plus rectangular tiling for dependence-free
   single-statement programs. *)
let check_settings (spec : Check.Gen.t) ~independent =
  let base = { Options.default with Options.find_band = false } in
  [ ("cell-merge", { base with Options.arch = `Cell; merge_per_array = true });
    ("cell-optmove", { base with Options.arch = `Cell; optimize_movement = true });
    ("gpu-delta0.3", { base with Options.arch = `Gpu });
    ("gpu-delta0", { base with Options.arch = `Gpu; delta = 0.0 }) ]
  @
  match spec.Check.Gen.stmts with
  | [ s ] when (not spec.Check.Gen.uses_param) && independent ->
    let tile = { Emsc_transform.Tile.block = None; mem = Some 4; thread = None } in
    [ ( "cell-tiled4",
        { base with
          Options.arch = `Cell;
          tiling = Options.Spec (Array.make s.Check.Gen.depth tile) } ) ]
  | _ -> []

(* The first 25 of the programs `emsc check` validates by default
   (--seed 1).  The set is fixed: per-program cost is heavy-tailed (in
   one 160-program draw a single program took 19 s of 46 s), so a draw
   from the benchmark seed would swamp any bound.  25 programs (104 checks) make a pass of about 3 s,
   so each check's median comes from several passes of one run. *)
let fuzz_seed = 1
let fuzz_programs ~smoke = if smoke then 4 else 25

let check_case ~program ~spec ~prog (setting, options) =
  let param_env = Check.Gen.param_env spec in
  { input = Printf.sprintf "gen#%d/%s" program setting;
    run = (fun () ->
      let verdict =
        Span.run "check.case" (fun () ->
          Prof.add "bench.checks" 1.0;
          match
            Span.run "check.compile" (fun () ->
              Pipeline.compile
                (Pipeline.job ~options (Source.Program { name = "gen"; prog })))
          with
          | Error e -> Error ("compile: " ^ Frontend.error_message e)
          | Ok c ->
            (match
               Span.run "check.oracle" (fun () ->
                 Check.Oracle.check_compiled ~param_env c)
             with
             | Error m -> Error ("oracle: " ^ m)
             | Ok () ->
               Span.run "check.invariants" (fun () -> invariants ~param_env c)))
      in
      fun () -> verdict) }

let check_fuzz args =
  run_sequential args
    ~setup:(fun () ->
      List.init (fuzz_programs ~smoke:args.smoke) (fun i ->
        let spec = Check.Gen.generate (Random.State.make [| fuzz_seed; i |]) in
        let prog = Check.Gen.materialize spec in
        let independent = Emsc_ir.Deps.analyze prog = [] in
        List.map (check_case ~program:i ~spec ~prog)
          (check_settings spec ~independent))
      |> List.concat |> Array.of_list)
    ~teardown:ignore ~ops_of:Fun.id ~finish:(fun _ -> []) ()

(* ------------------------------------------------------------------ *)
(* serve-warm                                                          *)
(* ------------------------------------------------------------------ *)

module SP = Emsc_serve.Protocol
module SC = Emsc_serve.Client
module Server = Emsc_serve.Server

(* a fixed family of tiled matmul sources; the hot LRU holds fewer
   stage entries than the family needs, so some lookups go to disk *)
let serve_sources ~smoke =
  List.init (if smoke then 2 else 8) (fun i ->
    let n = 16 + (8 * i) in
    ( Printf.sprintf "mm%d" n,
      Printf.sprintf
        "array A[%d][%d];\narray B[%d][%d];\narray C[%d][%d];\n\
         for (i = 0; i <= %d; i++) {\n\
        \  for (j = 0; j <= %d; j++) {\n\
        \    for (k = 0; k <= %d; k++) {\n\
        \      C[i][j] += A[i][k] * B[k][j];\n\
        \    }\n\
        \  }\n\
         }\n"
        n n n n n n (n - 1) (n - 1) (n - 1) ))
  |> Array.of_list

let serve_options = { SP.default_options with SP.o_block = [ 8; 8; 0 ]; o_mem = [ 8; 8; 8 ] }
let hot_cap ~smoke = if smoke then 4 else 16
let default_machine = "gtx8800"

let compile_op (name, text) = SP.Compile { name; text; options = serve_options }

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

type daemon = {
  dir : string;
  sock : string;
  cache : Cache.t;
  server : Server.stats Domain.t;
}

let setups = ref 0

(* a fresh disk cache, warmed by compiling every source once, and a
   daemon listening on a unix socket inside the output directory *)
let start_daemon args sources () =
  incr setups;
  let tag = Printf.sprintf "serve-%d-%d" (Unix.getpid ()) !setups in
  let dir = Filename.concat args.out_dir tag in
  mkdir_p dir;
  let cache = Cache.create ~dir ~max_entries:(hot_cap ~smoke:args.smoke) () in
  Array.iter (fun src ->
    match Server.execute ~cache ~default_machine (compile_op src) with
    | Ok _ -> ()
    | Error r -> failwith ("serve warm-up: " ^ r.SP.code ^ ": " ^ r.SP.message))
    sources;
  let sock = Filename.concat args.out_dir (tag ^ ".sock") in
  (* one connection keeps at most one request in flight *)
  let cfg = Server.config ~workers:1 ~cache (`Unix sock) in
  let server = Domain.spawn (fun () -> Server.run cfg) in
  (match SC.connect (`Unix sock) with
   | Ok c -> SC.close c
   | Error m -> failwith ("serve: connect: " ^ m));
  { dir; sock; cache; server }

let stop_daemon d =
  (match SC.once (`Unix d.sock) { SP.req_id = "stop"; op = SP.Shutdown; timeout_ms = None } with
   | Ok _ -> ()
   | Error m -> Printf.eprintf "serve: shutdown: %s\n" m);
  ignore (Domain.join d.server);
  rm_rf d.dir;
  rm_rf d.sock

(* One load window on a single closed-loop connection: the next request
   leaves when the previous answer is in.  (End-to-end runs are pinned
   to one CPU, where a second connection would only time-share it and
   split latencies into an alone and an overlapped mode.)  Sources are
   drawn from a seeded stream; the window ends after [limit] requests or
   [seconds]. *)
type load = {
  lats : (int * float) list;  (** source index, seconds *)
  errors : string list;
  sent : int;
  window_s : float;
}

(* first answer per source, to which every later answer must be equal *)
let firsts : (int, J.t) Hashtbl.t = Hashtbl.create 8

let load ~sources ~sock ~seed ~limit ~seconds =
  let rng = Random.State.make [| seed |] in
  match SC.connect (`Unix sock) with
  | Error m -> { lats = []; errors = [ "connect: " ^ m ]; sent = 0; window_s = 0.0 }
  | Ok conn ->
    let lats = ref [] and errors = ref [] and sent = ref 0 in
    let t_start = now () in
    (try
       while !sent < limit && now () -. t_start < seconds do
         let idx = Random.State.int rng (Array.length sources) in
         let name = fst sources.(idx) in
         incr sent;
         incr op_id;
         Span.set_op !op_id;
         let req =
           { SP.req_id = string_of_int !sent; op = compile_op sources.(idx); timeout_ms = None }
         in
         let t0 = now () in
         let resp = Span.run "serve.roundtrip" (fun () -> SC.roundtrip conn req) in
         let dt = now () -. t0 in
         match resp with
         | Error m -> errors := (name ^ ": " ^ m) :: !errors; raise Exit
         | Ok { SC.ok = true; result = Some r; _ } ->
           (match Hashtbl.find_opt firsts idx with
            | None -> Hashtbl.replace firsts idx r; lats := (idx, dt) :: !lats
            | Some r0 when J.equal r0 r -> lats := (idx, dt) :: !lats
            | Some _ -> errors := (name ^ ": response differs") :: !errors)
         | Ok resp ->
           errors :=
             (name ^ ": rejected: "
             ^ match resp.SC.error with Some e -> e.SP.code | None -> "?")
             :: !errors
       done
     with Exit -> ());
    let window_s = now () -. t_start in
    SC.close conn;
    { lats = !lats; errors = !errors; sent = !sent; window_s }

let lats l = List.map snd l.lats

(* every source's first answer equals a direct compile of its job *)
let serve_verify sources =
  List.filter_map (fun (idx, res) ->
    let name, text = sources.(idx) in
    match Server.job_of_request ~default_machine ~name ~text serve_options with
    | Error r -> Some (name ^ ": " ^ r.SP.message)
    | Ok (job, capacity_words) ->
      (match Pipeline.compile ~cache:Cache.off job with
       | Error e -> Some (name ^ ": direct compile: " ^ Frontend.error_message e)
       | Ok c when J.to_string (SP.compile_result ~capacity_words c) = J.to_string res -> None
       | Ok _ -> Some (name ^ ": served result differs from a direct compile")))
    (List.of_seq (Hashtbl.to_seq firsts))

let serve_warm args =
  let sources = serve_sources ~smoke:args.smoke in
  let d, setup_s = timed_setup ~setup:(start_daemon args sources) ~teardown:stop_daemon in
  Fun.protect ~finally:(fun () -> stop_daemon d) @@ fun () ->
  let go ~limit ~seconds = load ~sources ~sock:d.sock ~seed:args.seed ~limit ~seconds in
  if not args.trace then begin
    let l = go ~limit:max_int ~seconds:args.seconds in
    let heap = heap_mb () in
    let final = serve_verify sources in
    let rows =
      List.filter_map (fun i ->
        match List.filter_map (fun (j, t) -> if i = j then Some t else None) l.lats with
        | [] -> None
        | xs -> Some (fst sources.(i), Stats.median xs, List.length xs))
        (List.init (Array.length sources) Fun.id)
    in
    print_rows rows;
    let meds = List.map (fun (_, m, _) -> m) rows in
    print_result ~units:end_to_end
      { attempted = l.sent;
        failures = l.errors @ final;
        metrics =
          [ ("wall_s", Stats.sum meds);
            ("geomean_ms", 1000.0 *. Stats.geomean meds);
            ("setup_s", setup_s); ("peak_heap_mb", heap) ] }
  end
  else begin
    (* untraced load before and after the two traced ones, so warm-up
       does not count as trace overhead *)
    let limit = if args.smoke then 20 else 400 in
    let hot0 = Cache.hot_hits d.cache and disk0 = Cache.disk_hits d.cache in
    let miss0 = Cache.misses d.cache and ev0 = Cache.evictions d.cache in
    let l0 = go ~limit ~seconds:infinity in
    let hot = Cache.hot_hits d.cache - hot0 and disk = Cache.disk_hits d.cache - disk0 in
    let lookups = float_of_int (hot + disk + Cache.misses d.cache - miss0) in
    let evictions = Cache.evictions d.cache - ev0 in
    let traced_load () =
      start_traced_pass ();
      let l = with_instruments (fun () -> go ~limit ~seconds:infinity) in
      (l, layer_metrics (Prof.snapshot ()))
    in
    let l1, m1 = traced_load () in
    let l2, m2 = traced_load () in
    let l3 = go ~limit ~seconds:infinity in
    let execute_ms =
      1000.0
      *. Stats.median
           (List.concat_map (fun src ->
              List.init 5 (fun _ ->
                let t0 = now () in
                ignore (Server.execute ~cache:d.cache ~default_machine (compile_op src));
                now () -. t0))
              (Array.to_list sources))
    in
    let untraced = lats l0 @ lats l3 in
    let p50_ms = 1000.0 *. Stats.median untraced in
    let final = serve_verify sources in
    let metrics =
      report_trace
        ~metrics:
          (m1
          @ [ ("serve.execute_ms", execute_ms);
              ("serve.overhead_ms", p50_ms -. execute_ms);
              ("serve.p50_ms", p50_ms);
              ("serve.p90_ms", 1000.0 *. Stats.quantile untraced 0.9);
              ("serve.p99_ms", 1000.0 *. Stats.quantile untraced 0.99);
              ("serve.ops_per_s",
               float_of_int (List.length untraced) /. (l0.window_s +. l3.window_s));
              ("driver.cache_hot_hit_rate", ratio (float_of_int hot) lookups);
              ("driver.cache_disk_hit_rate", ratio (float_of_int disk) lookups);
              ("driver.cache_evictions", float_of_int evictions) ])
        ~flagged:(flag_counts m1 m2)
        ~unattr:(max 0.0 (1.0 -. ratio (Stats.sum (lats l1)) l1.window_s))
        ~overhead:((Stats.sum (lats l1 @ lats l2) /. Stats.sum untraced) -. 1.0)
    in
    write_spans args;
    print_result ~default:0.0 ~units:per_layer
      { attempted = l0.sent + l1.sent + l2.sent + l3.sent;
        failures = l0.errors @ l1.errors @ l2.errors @ l3.errors @ final;
        metrics }
  end

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let workloads =
  [ ("compile-cold", compile_cold); ("execute", execute);
    ("check-fuzz", check_fuzz); ("serve-warm", serve_warm) ]

let usage =
  "bench.exe --workload NAME --seed N --seconds S --trace 0|1 [--smoke] [--out DIR]\n\
   bench.exe --write-expected FILE"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let smoke = ref false and out_dir = ref ".bench_build/perfbench" in
  let expected = ref "" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--smoke", Arg.Set smoke, " small inputs, for the benchmark's own test");
      ("--out", Arg.Set_string out_dir, "DIR where spans and serve state go");
      ("--write-expected", Arg.Set_string expected,
       "FILE write the execute workload's expected digests") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !expected <> "" then write_expected !expected
  else
    match List.assoc_opt !workload workloads with
    | None ->
      prerr_endline ("unknown workload: " ^ !workload ^ "\n" ^ usage);
      exit 2
    | Some run ->
      run
        { workload = !workload; seed = !seed; seconds = !seconds;
          trace = !trace = 1; smoke = !smoke; out_dir = !out_dir }
