(* emsc — command-line driver.

     emsc analyze FILE      data-management plan: partitions, Algorithm 1
                            verdicts, buffer extents, movement code
                            (--json for the machine-readable report)
     emsc compile FILE...   batch-compile many programs in parallel and
                            report per-stage timings and cache traffic
     emsc profile FILE      run on the simulated machine and report
                            per-launch counters and timing breakdowns
     emsc deps FILE         dependence analysis
     emsc band FILE         tiling-hyperplane search
     emsc run FILE          execute the program on the reference
                            interpreter and print array checksums
     emsc check             differential testing: random affine programs
                            and the kernel suite through the pipeline,
                            transformed execution vs. the reference
                            interpreter, plus static plan invariants

   FILE is a program in the affine input language (see
   lib/lang/parser.mli); use '-' for stdin.  Every command goes through
   the Emsc_driver pipeline, so repeated compilations of unchanged
   sources hit the on-disk pass cache (disable with --no-cache; relocate
   with --cache-dir or $EMSC_CACHE_DIR).  Commands that compile or
   execute accept --trace FILE to dump a Chrome trace_event JSON of the
   compilation/simulation (view in chrome://tracing or Perfetto). *)

open Emsc_arith
open Emsc_ir
open Emsc_codegen
open Emsc_core
open Emsc_obs
open Emsc_driver
open Cmdliner

let die e =
  Printf.eprintf "emsc: %s\n" (Frontend.error_message e);
  exit 1

let ok_or_die = function Ok v -> v | Error e -> die e

(* run [f] with the profiler recording a timeline directed at [path]
   (when given); the trace file is written even when [f] fails, so
   aborted compilations can still be inspected *)
let with_trace trace f =
  match trace with
  | None -> f ()
  | Some path ->
    Prof.reset ();
    Prof.enable ~timeline:true ();
    Fun.protect
      ~finally:(fun () ->
        (* tracing must not destroy the command's result; the merged
           export appends runtime tracks (per-domain timelines, DMA
           lanes) when the command recorded events, and is exactly the
           compile trace otherwise *)
        (try Events.write_merged_chrome path
         with Sys_error e -> Printf.eprintf "emsc: cannot write trace: %s\n" e);
        Prof.disable ())
      f

let emit_json out j =
  let s = Json.to_string ~pretty:true j in
  match out with
  | None -> print_string s; print_newline ()
  | Some path ->
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        output_string oc s;
        output_char oc '\n')

let file_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE")

let arch_arg =
  let parse = function
    | "gpu" -> Ok `Gpu
    | "cell" -> Ok `Cell
    | s -> Error (`Msg ("unknown architecture " ^ s))
  in
  let print fmt a =
    Format.pp_print_string fmt (match a with `Gpu -> "gpu" | `Cell -> "cell")
  in
  Arg.(value & opt (conv (parse, print)) `Gpu
       & info [ "arch" ] ~doc:"Target style: gpu (copy only beneficial \
                               partitions) or cell (copy everything).")

let merge_arg =
  Arg.(value & flag
       & info [ "merge-per-array" ]
           ~doc:"One buffer per array (the paper's Figure 1 style) instead \
                 of one per non-overlapping partition.")

let delta_arg =
  Arg.(value & opt float 0.3
       & info [ "delta" ] ~doc:"Overlap-volume threshold of Algorithm 1.")

let optmove_arg =
  Arg.(value & flag
       & info [ "optimize-movement" ]
           ~doc:"Apply the Section 3.1.4 dependence-based copy-set \
                 minimization.")

let intertile_arg =
  Arg.(value & flag
       & info [ "inter-tile-reuse" ]
           ~doc:"Irredundant inter-tile movement: consecutive blocks of \
                 the innermost block loop move only the footprint delta \
                 and keep the overlapping slab resident in the \
                 scratchpad.")

let json_arg =
  Arg.(value & flag
       & info [ "json" ]
           ~doc:"Emit a machine-readable JSON report instead of prose.")

let trace_arg =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"Write a Chrome trace_event JSON of the run to $(docv) \
                 (open in chrome://tracing or Perfetto).")

let out_arg =
  Arg.(value & opt (some string) None
       & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Write the JSON report to $(docv) instead of stdout.")

let nocache_arg =
  Arg.(value & flag
       & info [ "no-cache" ]
           ~doc:"Do not read or write the on-disk pass cache.")

let cachedir_arg =
  Arg.(value & opt (some string) None
       & info [ "cache-dir" ] ~docv:"DIR"
           ~doc:"Pass-cache location (default: \\$EMSC_CACHE_DIR, else \
                 \\$XDG_CACHE_HOME/emsc, else ~/.cache/emsc).")

let cache_of no_cache dir =
  if no_cache then Emsc_driver.Cache.off else Emsc_driver.Cache.create ?dir ()

let param_args =
  Arg.(value & opt_all (pair ~sep:'=' string int) []
       & info [ "p"; "param" ] ~docv:"NAME=VALUE"
           ~doc:"Give a program parameter a value (repeatable).")

let cli_env params name =
  match List.assoc_opt name params with
  | Some v -> Zint.of_int v
  | None ->
    Printf.eprintf "parameter %s needs a value (use -p %s=N)\n" name name;
    exit 1

(* --- execution-backend selection (run / profile / check) ---------------- *)

let backend_arg =
  let parse = function
    | "seq" | "sequential" -> Ok `Seq
    | "parallel" | "par" -> Ok `Parallel
    | s -> Error (`Msg ("unknown backend " ^ s))
  in
  let print fmt b =
    Format.pp_print_string fmt
      (match b with `Seq -> "seq" | `Parallel -> "parallel")
  in
  Arg.(value & opt (conv (parse, print)) `Seq
       & info [ "backend" ] ~docv:"BACKEND"
           ~doc:"Execution backend: seq (sequential simulator) or parallel \
                 (block-parallel worker domains, see -j).  Both produce \
                 bit-identical arrays and counter totals.")

let exec_jobs_arg =
  Arg.(value & opt int 1
       & info [ "j"; "jobs" ] ~docv:"N"
           ~doc:"Worker domains of the parallel backend (with --backend \
                 parallel).")

let policy_arg =
  let parse = function
    | "static" -> Ok Emsc_runtime.Runtime.Static
    | "steal" | "work-stealing" -> Ok Emsc_runtime.Runtime.Work_stealing
    | s -> Error (`Msg ("unknown policy " ^ s))
  in
  let print fmt p =
    Format.pp_print_string fmt
      (match p with
       | Emsc_runtime.Runtime.Static -> "static"
       | Emsc_runtime.Runtime.Work_stealing -> "steal")
  in
  Arg.(value & opt (conv (parse, print)) Emsc_runtime.Runtime.Static
       & info [ "policy" ] ~docv:"POLICY"
           ~doc:"Parallel block-scheduling policy: static (round-robin) or \
                 steal (work-stealing deques).")

let double_buffer_arg =
  Arg.(value & flag
       & info [ "double-buffer" ]
           ~doc:"Pipeline move-in / compute / move-out on asynchronous DMA \
                 channels (parallel backend) and account the doubled \
                 scratchpad window in the timing model.")

let backend_of b jobs : Runner.backend =
  match b with `Seq -> `Seq | `Parallel -> `Par (max 1 jobs)

let runtime_flag =
  Arg.(value & flag
       & info [ "runtime" ]
           ~doc:"Record runtime execution events (implies --backend \
                 parallel) and report the analysis: per-domain \
                 busy/idle/steal breakdown, achieved DMA-compute overlap, \
                 scratchpad occupancy, critical path, plus the overlap \
                 audit against the double-buffer timing model.  With \
                 --trace, the Chrome export gains one track per worker \
                 domain and per DMA lane, merged with the compile spans.")

(* matmul-style default tiling when --runtime is given without tile
   flags: 16-blocks with 4-thread tiles on the outer dimensions, the
   innermost sub-tiled by 8 to bound the buffer window *)
let default_runtime_spec ~depth =
  Array.init depth (fun j ->
    if depth > 1 && j = depth - 1 then
      { Emsc_transform.Tile.block = None; mem = Some 8; thread = None }
    else { Emsc_transform.Tile.block = Some 16; mem = None; thread = Some 4 })

(* the runtime_report JSON object: the report's fields with the overlap
   audit nested under "overlap_audit" *)
let runtime_report_json ?model ~double_buffer (r : Runtime_report.t) =
  let audit = Emsc_audit.Overlap.audit ~double_buffer ?model r in
  match Runtime_report.to_json r with
  | Json.Obj fields ->
    Json.Obj (fields @ [ ("overlap_audit", Emsc_audit.Overlap.json audit) ])
  | j -> j

(* --- machine-model selection -------------------------------------------- *)

let machine_arg =
  Arg.(value & opt string "gtx8800"
       & info [ "machine" ] ~docv:"NAME|FILE"
           ~doc:"Machine model: a built-in hierarchy name (gtx8800, \
                 gtx8800_3level, core2duo_cache_as_scratchpad) or the \
                 path of an emsc-machine/1 JSON description.")

let resolve_machine spec =
  match Emsc_machine.Hierarchy.load spec with
  | Ok h -> h
  | Error msg ->
    Printf.eprintf "emsc: --machine: %s\n" msg;
    exit 1

let capacity_words_of hier =
  Emsc_machine.Hierarchy.staging_capacity_words hier

(* every command that resolves --machine folds the hierarchy digest into
   the option record, so a warm pass cache never serves a plan computed
   for a different machine *)
let machine_digest hier = Emsc_machine.Hierarchy.digest hier

let plan_of c =
  match c.Pipeline.plan with
  | Some plan -> plan
  | None -> die { Frontend.origin = c.Pipeline.source_name;
                  stage = "plan"; message = "pipeline produced no plan" }

let analyze_cmd =
  let run file machine arch merge delta optimize_movement inter_tile_reuse
      json trace no_cache cache_dir out =
    with_trace trace @@ fun () ->
    let hier = resolve_machine machine in
    let capacity_words = capacity_words_of hier in
    let cache = cache_of no_cache cache_dir in
    let options =
      { Options.default with
        arch; merge_per_array = merge; delta;
        optimize_movement; inter_tile_reuse;
        machine = machine_digest hier }
    in
    (* the registry picks up pass-cache and per-stage counters during
       compilation; the JSON report carries the resulting snapshot,
       and the Prof layer attributes the compile's wall time per pass *)
    let metrics_were_on = Metrics.enabled () in
    if json then Metrics.enable ();
    let prof_was_on = Prof.enabled () in
    if json && not prof_was_on then begin
      Prof.reset ();
      Prof.enable ()
    end;
    let snap0 = Metrics.snapshot () in
    let t0 = Unix.gettimeofday () in
    let c =
      ok_or_die (Pipeline.compile_source ~cache ~options (Source.file file))
    in
    let compile_wall_ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
    let metrics = Metrics.diff snap0 (Metrics.snapshot ()) in
    let compile_prof = if json then Some (Prof.snapshot ()) else None in
    if json && not prof_was_on then begin
      Prof.disable ();
      Prof.reset ()
    end;
    if json && not metrics_were_on then Metrics.disable ();
    let plan = plan_of c in
    if json then
      let fields =
        match Plan.explain_json ~capacity_words plan with
        | Json.Obj fields -> fields
        | j -> [ ("plan", j) ]
      in
      emit_json out
        (Json.Obj
           (fields
            @ [ ("machine",
                 Json.Str (Emsc_machine.Hierarchy.name hier));
                ("pipeline", Pipeline.report_json c);
                ("metrics", Metrics.snapshot_json metrics) ]
            @
            match compile_prof with
            | Some prof ->
              [ ( "compile_profile",
                  Prof.json ~wall_ms:compile_wall_ms prof ) ]
            | None -> []))
    else begin
      Format.printf "%a@." Plan.pp plan;
      List.iter (fun (b : Plan.buffered) ->
        let buf = b.Plan.buffer in
        Format.printf "@.// buffer %s, sizes %a@." buf.Alloc.local_name
          (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f " x ")
             Ast.pp_aexpr)
          (Array.to_list (Alloc.size_exprs buf));
        Format.printf "/* data move-in code */@.%a@." Ast.pp_block
          b.Plan.move_in;
        Format.printf "/* data move-out code */@.%a@." Ast.pp_block
          b.Plan.move_out)
        plan.Plan.buffered;
      if Emsc_driver.Cache.enabled cache then
        Printf.printf "\n// pass cache: %d hit(s), %d miss(es)\n"
          c.Pipeline.cache_hits c.Pipeline.cache_misses
    end
  in
  Cmd.v (Cmd.info "analyze" ~doc:"Data-management plan for a program block")
    Term.(const run $ file_arg $ machine_arg $ arch_arg $ merge_arg
          $ delta_arg $ optmove_arg $ intertile_arg $ json_arg $ trace_arg
          $ nocache_arg $ cachedir_arg $ out_arg)

let deps_cmd =
  let run file no_cache cache_dir =
    let cache = cache_of no_cache cache_dir in
    let options = { Options.default with stop = Options.Dependences } in
    let c =
      ok_or_die (Pipeline.compile_source ~cache ~options (Source.file file))
    in
    match c.Pipeline.deps with
    | None | Some [] -> print_endline "no dependences"
    | Some deps -> List.iter (fun d -> Format.printf "%a@." Deps.pp d) deps
  in
  Cmd.v (Cmd.info "deps" ~doc:"Polyhedral dependence analysis")
    Term.(const run $ file_arg $ nocache_arg $ cachedir_arg)

let band_cmd =
  let run file no_cache cache_dir =
    let cache = cache_of no_cache cache_dir in
    let options = { Options.default with stop = Options.Band } in
    let c =
      ok_or_die (Pipeline.compile_source ~cache ~options (Source.file file))
    in
    match c.Pipeline.band with
    | Some band ->
      List.iteri (fun k h ->
        Format.printf "h%d = %a%s@." k Emsc_linalg.Vec.pp h
          (if List.nth band.Emsc_transform.Hyperplanes.parallel k then
             "  (parallel / space loop)"
           else "  (sequential)"))
        band.Emsc_transform.Hyperplanes.hyperplanes
    | None -> Printf.eprintf "band search: no common permutable band\n"
  in
  Cmd.v
    (Cmd.info "band" ~doc:"Find the permutable tiling-hyperplane band")
    Term.(const run $ file_arg $ nocache_arg $ cachedir_arg)

let parse_tile_list = function
  | None -> [||]
  | Some s ->
    (try
       Array.of_list
         (List.map int_of_string
            (List.filter (fun x -> x <> "") (String.split_on_char ',' s)))
     with _ ->
       Printf.eprintf "bad tile list %S (expected N,N,...)\n" s;
       exit 1)

let spec_of_lists ~depth ~block ~mem ~thread =
  let get a j =
    if j < Array.length a && a.(j) > 0 then Some a.(j) else None
  in
  Array.init depth (fun j ->
    { Emsc_transform.Tile.block = get block j; mem = get mem j;
      thread = get thread j })

let tile_list name doc =
  Arg.(value & opt (some string) None & info [ name ] ~docv:"N,N,..." ~doc)

let block_arg =
  tile_list "block"
    "Block-level tile size per loop dimension (0 = untiled at that \
     dimension); enables the simulated-GPU path."

let mem_arg = tile_list "mem" "Memory-capacity tile size per dimension."
let thread_arg = tile_list "thread" "Thread tile size per dimension."

(* --- emsc run ----------------------------------------------------------- *)

let run_cmd =
  let print_run_result (p : Prog.t) m ~flops ~loads ~stores =
    Printf.printf "executed: %.0f statement flops, %.0f loads, %.0f stores\n"
      flops loads stores;
    List.iter (fun (d : Prog.array_decl) ->
      let data = Emsc_machine.Memory.global_data m d.Prog.array_name in
      let sum = Array.fold_left ( +. ) 0.0 data in
      Printf.printf "checksum %-10s = %.6f\n" d.Prog.array_name sum)
      p.Prog.arrays
  in
  let run file machine params backend jobs policy double_buffer runtime
      inter_tile_reuse block mem thread =
    let hier = resolve_machine machine in
    let backend = if runtime then `Parallel else backend in
    match backend with
    | `Seq ->
      let options = { Options.default with stop = Options.Front_end } in
      let c =
        ok_or_die (Pipeline.compile_source ~options (Source.file file))
      in
      let p = c.Pipeline.prog in
      let m, counters =
        Runner.reference ~memory:Runner.Pseudorandom
          ~param_env:(cli_env params) p
      in
      print_run_result p m ~flops:counters.Emsc_machine.Exec.flops
        ~loads:counters.Emsc_machine.Exec.g_ld
        ~stores:counters.Emsc_machine.Exec.g_st
    | `Parallel ->
      (* the parallel backend executes a generated kernel, so the
         program must be tiled: compile under the given tile spec *)
      let p, _digest = ok_or_die (Frontend.load (Source.file file)) in
      let block = parse_tile_list block
      and mem = parse_tile_list mem
      and thread = parse_tile_list thread in
      if Array.length block = 0 && Array.length mem = 0
         && Array.length thread = 0
      then begin
        Printf.eprintf
          "run: --backend parallel executes a tiled kernel; give \
           --block/--mem/--thread tile sizes\n";
        exit 1
      end;
      (match p.Prog.stmts with
       | [ s ] ->
         let spec = spec_of_lists ~depth:s.Prog.depth ~block ~mem ~thread in
         let options =
           { Options.default with
             Options.find_band = false; tiling = Options.Spec spec;
             inter_tile_reuse; machine = machine_digest hier }
         in
         let c =
           ok_or_die
             (Pipeline.compile
                (Pipeline.job ~options
                   (Source.Program { name = file; prog = p })))
         in
         let simulate () =
           Runner.simulate ~memory:Runner.Pseudorandom
             ~param_env:(cli_env params)
             ~backend:(backend_of `Parallel jobs) ~policy ~double_buffer
             ~track_ownership:true ~hierarchy:hier c
         in
         let (m, result), report =
           if runtime then Runner.with_runtime_report simulate
           else (simulate (), None)
         in
         let t = result.Emsc_machine.Exec.totals in
         print_run_result c.Pipeline.prog m ~flops:t.Emsc_machine.Exec.flops
           ~loads:t.Emsc_machine.Exec.g_ld
           ~stores:t.Emsc_machine.Exec.g_st;
         (match report with
          | Some r ->
            Format.printf "%a" Runtime_report.pp r;
            Format.printf "%a" Emsc_audit.Overlap.pp
              (Emsc_audit.Overlap.audit ~double_buffer r)
          | None -> ())
       | _ ->
         Printf.eprintf "run: tiling flags need a single-statement program\n";
         exit 1)
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Execute on the reference interpreter, or — with --backend \
             parallel and tile sizes — block-parallel on the simulated \
             machine (bit-identical checksums)")
    Term.(const run $ file_arg $ machine_arg $ param_args $ backend_arg
          $ exec_jobs_arg $ policy_arg $ double_buffer_arg $ runtime_flag
          $ intertile_arg $ block_arg $ mem_arg $ thread_arg)

(* --- emsc profile ------------------------------------------------------- *)

let gpu_profile ~cache ~name ~prog ~hier ~arch ~merge ~delta
    ~optimize_movement ~inter_tile_reuse ~spec ~threads ~global_sync ~backend
    ~jobs ~policy ~double_buffer ~runtime =
  let capacity_words = capacity_words_of hier in
  let options =
    { Options.default with
      arch; merge_per_array = merge; delta; optimize_movement;
      inter_tile_reuse; machine = machine_digest hier;
      find_band = false; tiling = Options.Spec spec }
  in
  (* the metrics registry is on for the whole compile + run: the
     compile contributes per-stage and cache-latency histograms
     (p50/p95/p99 in the JSON), the run contributes the per-buffer DMA
     words the per-edge movement report below aggregates *)
  let metrics_were_on = Metrics.enabled () in
  Metrics.enable ();
  let snap0 = Metrics.snapshot () in
  let c =
    ok_or_die
      (Pipeline.compile ~cache
         (Pipeline.job ~options (Source.Program { name; prog })))
  in
  let plan = plan_of c in
  let simulate () =
    Prof.probe "runner.simulate" @@ fun () ->
    match backend with
    | `Seq -> Runner.simulate c
    | `Parallel ->
      Runner.simulate ~memory:Runner.Pseudorandom
        ~backend:(backend_of `Parallel jobs) ~policy ~double_buffer
        ~hierarchy:hier c
  in
  let (_, result), report =
    if runtime then Runner.with_runtime_report simulate
    else (simulate (), None)
  in
  let measured = Metrics.diff snap0 (Metrics.snapshot ()) in
  if not metrics_were_on then Metrics.disable ();
  let hierarchy_json =
    let module H = Emsc_machine.Hierarchy in
    let module P = Emsc_machine.Placement in
    if plan.Plan.buffered = [] then
      Json.Obj [ ("machine", Json.Str (H.name hier)) ]
    else begin
      let placement = P.of_plan ~double_buffer hier plan Runner.zero_env in
      let moved (p : P.placed) =
        let labels = [ ("buffer", p.P.p_buffer) ] in
        int_of_float
          (Metrics.counter_value ~labels measured "exec.move_in_words"
           +. Metrics.counter_value ~labels measured "exec.move_out_words")
      in
      let edges = P.edge_totals hier placement ~words_of:moved in
      Json.Obj
        [ ("machine", Json.Str (H.name hier));
          ("placement", P.to_json placement);
          ( "level_movement",
            Json.Obj
              (List.map (fun (e, w) -> (e, Json.Int w)) edges) ) ]
    end
  in
  let word_bytes =
    (Emsc_machine.Hierarchy.staging hier).Emsc_machine.Hierarchy.l_word_bytes
  in
  let smem_bytes =
    match
      Emsc_machine.Timing.plan_smem_bytes ~double_buffer ~word_bytes plan
        Runner.zero_env
    with
    | Some b -> b
    | None -> Emsc_machine.Timing.(default_params.smem_bytes_per_block)
  in
  let gp =
    { Emsc_machine.Timing.threads;
      smem_bytes_per_block = smem_bytes;
      coalesce_eff = (if plan.Plan.buffered <> [] then 16.0 else 4.0);
      global_sync; double_buffer }
  in
  [ ("mode", Json.Str "gpu-sim");
    ( "backend",
      Json.Str
        (match backend with
         | `Seq -> "seq"
         | `Parallel -> Printf.sprintf "parallel-j%d" (max 1 jobs)) );
    ("plan", Plan.explain_json ~capacity_words plan);
    ("profile", Emsc_machine.Timing.profile_json hier gp result);
    ("hierarchy", hierarchy_json);
    ("pipeline", Pipeline.report_json c);
    (* histograms in here carry p50/p95/p99 summaries — the per-stage
       stage_ms and cache hit/miss/store latency distributions *)
    ("metrics", Metrics.snapshot_json measured) ]
  @
  match report with
  | Some r ->
    (* the model side of the overlap audit: the first launch's timing
       breakdown under the same parameters the profile reports *)
    let model =
      match result.Emsc_machine.Exec.launches with
      | l :: _ -> Some (Emsc_machine.Timing.launch_breakdown hier gp l)
      | [] -> None
    in
    [ ("runtime_report", runtime_report_json ?model ~double_buffer r) ]
  | None -> []

let cpu_profile ?(hier = Emsc_machine.Hierarchy.core2duo_cache_as_scratchpad)
    p ~params =
  let env = cli_env params in
  let module Sim = Emsc_machine.Cache.Sim in
  let sim = Sim.create hier in
  let on_global _ addr _ = ignore (Sim.access sim addr) in
  let _, c =
    Prof.probe "runner.reference" @@ fun () ->
    Runner.reference ~memory:Runner.Pseudorandom ~param_env:env ~on_global p
  in
  let hits = Sim.hits sim in
  let names = Sim.level_names sim in
  let home_accesses = Sim.home_accesses sim in
  let cpu_ms =
    Emsc_machine.Timing.cache_total_ms hier
      ~flops:c.Emsc_machine.Exec.flops ~hits ~home_accesses
  in
  (* per-level keys: "<level>_hits" for each simulated cache level,
     "<home>_accesses" for the home — "l1_hits"/"l2_hits"/
     "mem_accesses" on the default core2duo hierarchy, as before *)
  let cache_fields =
    Array.to_list
      (Array.mapi (fun i n -> (n ^ "_hits", Json.Float hits.(i))) names)
    @ [ (Sim.home_name sim ^ "_accesses", Json.Float home_accesses) ]
  in
  [ ("mode", Json.Str "cpu-reference");
    ("machine", Json.Str (Emsc_machine.Hierarchy.name hier));
    ("totals", Emsc_machine.Exec.counters_json c);
    ("cache", Json.Obj cache_fields);
    ("cpu_ms", Json.Float cpu_ms) ]

let profile_cmd =
  let threads_arg =
    Arg.(value & opt int 256
         & info [ "threads" ] ~doc:"Simulated threads per block.")
  in
  let globalsync_arg =
    Arg.(value & flag
         & info [ "global-sync" ]
             ~doc:"Charge a cross-block synchronization per launch.")
  in
  let hotspots_arg =
    Arg.(value & flag
         & info [ "hotspots" ]
             ~doc:"Self-profile the compiler itself: print a top-K \
                   self-time table of the hot passes (FM projection, \
                   simplex, ILP, scanning, driver stages) to stderr, \
                   write flamegraph-compatible collapsed stacks (see \
                   --collapsed), and embed the compile_profile section \
                   in the JSON report.")
  in
  let collapsed_arg =
    Arg.(value & opt string "emsc-profile.collapsed"
         & info [ "collapsed" ] ~docv:"FILE"
             ~doc:"Where --hotspots writes collapsed stacks (one \
                   'pass;pass;pass <self µs>' line per call stack; feed \
                   to flamegraph.pl or speedscope).")
  in
  let run file machine arch merge delta optimize_movement inter_tile_reuse
      block mem thread threads global_sync backend jobs policy double_buffer
      runtime hotspots collapsed params trace no_cache cache_dir out =
    with_trace trace @@ fun () ->
    let prof_was_on = Prof.enabled () in
    if hotspots && not prof_was_on then begin
      Prof.reset ();
      Prof.enable ()
    end;
    let t_start = Unix.gettimeofday () in
    let hier = resolve_machine machine in
    let cache = cache_of no_cache cache_dir in
    let p, _digest = ok_or_die (Frontend.load (Source.file file)) in
    let block = parse_tile_list block
    and mem = parse_tile_list mem
    and thread = parse_tile_list thread in
    let tiled =
      Array.length block > 0 || Array.length mem > 0
      || Array.length thread > 0
    in
    (* --runtime profiles the parallel backend; without explicit tile
       sizes it falls back to the canonical matmul-style spec *)
    let backend = if runtime then `Parallel else backend in
    if backend = `Parallel && not (tiled || runtime) then begin
      Printf.eprintf
        "profile: --backend parallel executes a tiled kernel; give \
         --block/--mem/--thread tile sizes\n";
      exit 1
    end;
    let fields =
      if tiled || runtime then begin
        match p.Prog.stmts with
        | [ s ] ->
          let spec =
            if tiled then spec_of_lists ~depth:s.Prog.depth ~block ~mem ~thread
            else default_runtime_spec ~depth:s.Prog.depth
          in
          gpu_profile ~cache ~name:file ~prog:p ~hier ~arch ~merge ~delta
            ~optimize_movement ~inter_tile_reuse ~spec ~threads ~global_sync
            ~backend ~jobs ~policy ~double_buffer ~runtime
        | _ ->
          Printf.eprintf
            "profile: tiling flags need a single-statement program\n";
          exit 1
      end
      else if machine = "gtx8800" then
        (* untiled profile replays on the cache-simulated CPU; the GPU
           default machine has no cache levels, so keep the legacy
           core2duo model unless the user picked one explicitly *)
        cpu_profile p ~params
      else cpu_profile ~hier p ~params
    in
    let fields =
      if Prof.enabled () then begin
        let wall_ms = (Unix.gettimeofday () -. t_start) *. 1000.0 in
        let prof = Prof.snapshot () in
        if hotspots then begin
          Prof.pp_top Format.err_formatter prof;
          Prof.write_collapsed collapsed prof;
          Printf.eprintf "collapsed stacks written to %s\n%!" collapsed
        end;
        fields
        @ (if trace = None then []
           else [ ("pass_timings", Prof.pass_timings prof) ])
        @ [ ("compile_profile", Prof.json ~wall_ms prof) ]
      end
      else fields
    in
    if hotspots && not prof_was_on then begin
      Prof.disable ();
      Prof.reset ()
    end;
    emit_json out (Json.Obj fields)
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Execute on the simulated machine and report machine-readable \
             metrics: per-launch counters, occupancy, and the \
             compute/bandwidth/latency timing breakdown")
    Term.(const run $ file_arg $ machine_arg $ arch_arg $ merge_arg
          $ delta_arg $ optmove_arg $ intertile_arg $ block_arg $ mem_arg
          $ thread_arg $ threads_arg $ globalsync_arg $ backend_arg
          $ exec_jobs_arg $ policy_arg $ double_buffer_arg $ runtime_flag
          $ hotspots_arg $ collapsed_arg
          $ param_args $ trace_arg $ nocache_arg $ cachedir_arg $ out_arg)

(* --- emsc check --------------------------------------------------------- *)

let check_cmd =
  let fuzz_arg =
    Arg.(value & opt int 50
         & info [ "fuzz" ] ~docv:"N"
             ~doc:"Number of random affine programs to generate and check.")
  in
  let seed_arg =
    Arg.(value & opt int 1
         & info [ "seed" ] ~docv:"S"
             ~doc:"Seed of the program generator (same seed, same programs).")
  in
  let run fuzz seed machine backend jobs inter_tile_reuse json trace out =
    with_trace trace @@ fun () ->
    let hier = resolve_machine machine in
    let progress =
      if json then fun _ -> () else fun m -> Printf.eprintf "emsc check: %s\n%!" m
    in
    let report =
      Emsc_check.Fuzz.run ~backend:(backend_of backend jobs) ~fuzz ~seed
        ~inter_tile:inter_tile_reuse
        ~capacity_words:(capacity_words_of hier) ~hierarchy:hier ~progress ()
    in
    if json then emit_json out (Emsc_check.Fuzz.report_json report)
    else Format.printf "%a@." Emsc_check.Fuzz.pp_report report;
    if report.Emsc_check.Fuzz.failures <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Differential testing and invariant checking: run randomly \
             generated affine programs and the kernel suite through the \
             pipeline at several planner settings, compare transformed \
             execution against the reference interpreter bit-for-bit, and \
             verify the static plan invariants (single transfer, bounds, \
             capacity, write-back safety).  Failing random programs are \
             shrunk to a minimal reproducer.  With --backend parallel \
             every tiled check also runs block-parallel with the \
             ownership tracker armed and requires counter totals \
             bit-identical to sequential execution.  Exits 1 on any \
             failure.")
    Term.(const run $ fuzz_arg $ seed_arg $ machine_arg $ backend_arg
          $ exec_jobs_arg $ intertile_arg $ json_arg $ trace_arg $ out_arg)

(* --- emsc compile ------------------------------------------------------- *)

let compile_cmd =
  let files_arg =
    Arg.(non_empty & pos_all string [] & info [] ~docv:"FILE")
  in
  let jobs_arg =
    Arg.(value & opt int 0
         & info [ "j"; "jobs" ] ~docv:"N"
             ~doc:"Worker processes for the batch (0 = one per core).")
  in
  let run files arch merge delta optimize_movement json jobs trace no_cache
      cache_dir out =
    with_trace trace @@ fun () ->
    let cache = cache_of no_cache cache_dir in
    let options =
      { Options.default with
        arch; merge_per_array = merge; delta; optimize_movement }
    in
    let jobs = if jobs <= 0 then Pipeline.default_jobs () else jobs in
    let batch = List.map (fun f -> Pipeline.job ~options (Source.file f)) files in
    let t0 = Unix.gettimeofday () in
    let results = Pipeline.compile_many ~cache ~jobs batch in
    let wall_ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
    let errors =
      List.filter_map (function Error e -> Some e | Ok _ -> None) results
    in
    let hits, misses =
      List.fold_left
        (fun (h, m) -> function
          | Ok c -> (h + c.Pipeline.cache_hits, m + c.Pipeline.cache_misses)
          | Error _ -> (h, m))
        (0, 0) results
    in
    if json then
      emit_json out
        (Json.Obj
           [ ("schema", Json.Str "emsc-compile/1");
             ( "files",
               Json.List
                 (List.map2
                    (fun f -> function
                      | Ok c -> Pipeline.report_json c
                      | Error e ->
                        Json.Obj
                          [ ("source", Json.Str f);
                            ("error", Json.Str (Frontend.error_message e)) ])
                    files results) );
             ( "summary",
               Json.Obj
                 [ ("files", Json.Int (List.length files));
                   ("errors", Json.Int (List.length errors));
                   ("wall_ms", Json.Float wall_ms);
                   ( "cache",
                     Json.Obj
                       [ ("hits", Json.Int hits);
                         ("misses", Json.Int misses) ] );
                   ("jobs", Json.Int jobs) ] ) ])
    else begin
      List.iter2
        (fun f -> function
          | Ok c ->
            Printf.printf "%-32s ok    %2d stage(s), %d cache hit(s)\n" f
              (List.length c.Pipeline.timings) c.Pipeline.cache_hits
          | Error e ->
            Printf.printf "%-32s ERROR %s\n" f (Frontend.error_message e))
        files results;
      Printf.printf "%d file(s), %d error(s), %.1f ms, %d worker(s)\n"
        (List.length files) (List.length errors) wall_ms jobs
    end;
    if errors <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "compile"
       ~doc:"Batch-compile programs through the full pipeline in parallel \
             worker processes, reporting per-stage timings and pass-cache \
             traffic")
    Term.(const run $ files_arg $ arch_arg $ merge_arg $ delta_arg
          $ optmove_arg $ json_arg $ jobs_arg $ trace_arg $ nocache_arg
          $ cachedir_arg $ out_arg)

(* --- emsc audit --------------------------------------------------------- *)

let audit_cmd =
  let files_arg = Arg.(value & pos_all string [] & info [] ~docv:"FILE") in
  let tolerance_arg =
    Arg.(value & opt float Emsc_audit.Audit.default_tolerance
         & info [ "tolerance" ] ~docv:"R"
             ~doc:"Maximum tolerated absolute relative error between a \
                   predicted and a measured quantity.")
  in
  let suite_arg =
    Arg.(value & flag
         & info [ "suite" ] ~doc:"Also audit the built-in kernel suite.")
  in
  let run files suite tolerance machine arch merge delta optimize_movement
      inter_tile_reuse params json trace no_cache cache_dir out =
    with_trace trace @@ fun () ->
    let hier = resolve_machine machine in
    if files = [] && not suite then begin
      Printf.eprintf "audit: give FILE arguments or --suite\n";
      exit 1
    end;
    let cache = cache_of no_cache cache_dir in
    let options =
      { Options.default with
        arch; merge_per_array = merge; delta; optimize_movement;
        inter_tile_reuse; machine = machine_digest hier }
    in
    let param_env =
      if params = [] then Runner.zero_env else cli_env params
    in
    let file_jobs =
      List.map (fun f -> (f, Pipeline.job ~options (Source.file f))) files
    in
    let suite_jobs =
      if suite then
        List.map (fun (j : Pipeline.job) -> (Source.name j.Pipeline.source, j))
          (Emsc_kernels.Suite.jobs ())
      else []
    in
    let results =
      List.map (fun (name, job) ->
        (name,
         Emsc_audit.Audit.audit_job ~cache ~tolerance ~hierarchy:hier
           ~param_env job))
        (file_jobs @ suite_jobs)
    in
    let all_ok =
      List.for_all (fun (_, o) -> Emsc_audit.Audit.ok o) results
    in
    if json then
      emit_json out
        (Json.Obj
           [ ("schema", Json.Str "emsc-audit-batch/1");
             ("tolerance", Json.Float tolerance);
             ("ok", Json.Bool all_ok);
             ( "results",
               Json.List
                 (List.map (fun (name, o) ->
                    Emsc_audit.Audit.outcome_json ~name o)
                    results) ) ])
    else
      List.iter (fun (name, o) ->
        Format.printf "%a@." (Emsc_audit.Audit.pp_outcome ~name) o)
        results;
    if not all_ok then exit 1
  in
  Cmd.v
    (Cmd.info "audit"
       ~doc:"Cost-model audit: compile, replay on the simulated machine in \
             full fidelity, and report the relative error of every \
             predicted quantity (per-buffer movement volume, footprint, \
             counter totals, timing-model terms) against the measured \
             telemetry.  Exits 1 when a compilation fails or drift \
             exceeds the tolerance.")
    Term.(const run $ files_arg $ suite_arg $ tolerance_arg $ machine_arg
          $ arch_arg $ merge_arg $ delta_arg $ optmove_arg $ intertile_arg
          $ param_args $ json_arg $ trace_arg $ nocache_arg $ cachedir_arg
          $ out_arg)

(* --- emsc serve / emsc client ------------------------------------------- *)

let socket_arg =
  Arg.(value & opt (some string) None
       & info [ "socket" ] ~docv:"PATH"
           ~doc:"Serve (or dial) a Unix-domain socket at $(docv).")

let port_arg =
  Arg.(value & opt (some int) None
       & info [ "port" ] ~docv:"N"
           ~doc:"Serve (or dial) TCP port $(docv) instead of a Unix socket.")

let host_arg =
  Arg.(value & opt string "127.0.0.1"
       & info [ "host" ] ~docv:"HOST" ~doc:"Host for --port.")

let addr_of cmd socket port host : Emsc_serve.Server.addr =
  match socket, port with
  | Some path, None -> `Unix path
  | None, Some p -> `Tcp (host, p)
  | None, None ->
    Printf.eprintf "%s: give --socket PATH or --port N\n" cmd;
    exit 1
  | Some _, Some _ ->
    Printf.eprintf "%s: --socket and --port are mutually exclusive\n" cmd;
    exit 1

let serve_cmd =
  let workers_arg =
    Arg.(value & opt int 0
         & info [ "workers" ] ~docv:"N"
             ~doc:"Worker domains executing requests (0 = pick from the \
                   core count).")
  in
  let queue_arg =
    Arg.(value & opt int 64
         & info [ "queue" ] ~docv:"N"
             ~doc:"Admitted-request queue bound; requests past it are \
                   rejected with code queue_full (backpressure).")
  in
  let timeout_arg =
    Arg.(value & opt float 0.0
         & info [ "timeout-ms" ] ~docv:"MS"
             ~doc:"Default per-request deadline: a request still queued \
                   after $(docv) ms is answered with code timeout instead \
                   of compiled (0 = none; requests may override).")
  in
  let hot_cap_arg =
    Arg.(value & opt int 256
         & info [ "hot-cap" ] ~docv:"N"
             ~doc:"LRU entry cap of the shared in-memory hot cache \
                   (0 = unbounded).")
  in
  let quiet_arg =
    Arg.(value & flag & info [ "quiet" ] ~doc:"No lifecycle logging.")
  in
  let run socket port host workers queue timeout_ms hot_cap machine quiet
      no_cache cache_dir =
    let addr = addr_of "serve" socket port host in
    let max_entries = if hot_cap > 0 then Some hot_cap else None in
    let cache =
      if no_cache then Emsc_driver.Cache.in_memory ?max_entries ()
      else Emsc_driver.Cache.create ?dir:cache_dir ?max_entries ()
    in
    let hier = resolve_machine machine in
    ignore hier;
    (* the daemon keeps latency quantiles and queue gauges live so a
       status/metrics consumer sees them without restarting it *)
    Metrics.enable ();
    let log m = if not quiet then Printf.eprintf "emsc serve: %s\n%!" m in
    let cfg =
      Emsc_serve.Server.config
        ?workers:(if workers > 0 then Some workers else None)
        ~queue_capacity:queue ~default_timeout_ms:timeout_ms ~cache
        ~default_machine:machine ~install_signal_handlers:true ~log addr
    in
    let stats =
      match Emsc_serve.Server.listen cfg with
      | l -> Emsc_serve.Server.serve l
      | exception Failure m -> prerr_endline m; exit 1
    in
    log
      (Printf.sprintf "served %d, rejected %d over %d connection(s)"
         stats.Emsc_serve.Server.served stats.Emsc_serve.Server.rejected
         stats.Emsc_serve.Server.connections)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the compile daemon: newline-delimited JSON requests \
             (emsc-serve/1) over a Unix or TCP socket, dispatched to a \
             domain worker pool over a shared hot pass cache.  Stop it \
             with an in-band shutdown request or SIGTERM; both drain \
             gracefully.")
    Term.(const run $ socket_arg $ port_arg $ host_arg $ workers_arg
          $ queue_arg $ timeout_arg $ hot_cap_arg $ machine_arg $ quiet_arg
          $ nocache_arg $ cachedir_arg)

let client_cmd =
  let op_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"OP"
             ~doc:"One of compile, analyze, check, status, shutdown.")
  in
  let files_arg =
    Arg.(value & pos_right 0 string [] & info [] ~docv:"FILE")
  in
  let timeout_arg =
    Arg.(value & opt (some float) None
         & info [ "timeout-ms" ] ~docv:"MS"
             ~doc:"Per-request deadline forwarded to the daemon.")
  in
  let fuzz_arg =
    Arg.(value & opt int 10
         & info [ "fuzz" ] ~docv:"N" ~doc:"Programs for the check op.")
  in
  let seed_arg =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Check seed.")
  in
  let run socket port host op files timeout_ms fuzz seed machine arch merge
      delta optimize_movement inter_tile_reuse block mem thread =
    let addr = addr_of "client" socket port host in
    let options =
      { Emsc_serve.Protocol.o_arch = arch;
        o_merge_per_array = merge; o_delta = delta;
        o_optimize_movement = optimize_movement;
        o_inter_tile_reuse = inter_tile_reuse;
        o_machine = (if machine = "gtx8800" then "" else machine);
        o_block = Array.to_list (parse_tile_list block);
        o_mem = Array.to_list (parse_tile_list mem);
        o_thread = Array.to_list (parse_tile_list thread) }
    in
    let requests =
      let req i o =
        { Emsc_serve.Protocol.req_id = string_of_int i; op = o; timeout_ms }
      in
      match op with
      | "status" -> [ req 0 Emsc_serve.Protocol.Status ]
      | "shutdown" -> [ req 0 Emsc_serve.Protocol.Shutdown ]
      | "check" -> [ req 0 (Emsc_serve.Protocol.Check { fuzz; seed }) ]
      | "compile" | "analyze" ->
        if files = [] then begin
          Printf.eprintf "client: %s needs FILE arguments\n" op;
          exit 1
        end;
        List.mapi
          (fun i f ->
            let text =
              let ic = open_in f in
              Fun.protect
                ~finally:(fun () -> close_in_noerr ic)
                (fun () -> really_input_string ic (in_channel_length ic))
            in
            let payload =
              if op = "compile" then
                Emsc_serve.Protocol.Compile { name = f; text; options }
              else Emsc_serve.Protocol.Analyze { name = f; text; options }
            in
            req i payload)
          files
      | o ->
        Printf.eprintf "client: unknown op %S\n" o;
        exit 1
    in
    match Emsc_serve.Client.connect addr with
    | Error m ->
      Printf.eprintf "client: cannot connect: %s\n" m;
      exit 1
    | Ok conn ->
      let failed = ref false in
      List.iter
        (fun r ->
          match Emsc_serve.Client.roundtrip conn r with
          | Error m ->
            Printf.eprintf "client: %s\n" m;
            failed := true
          | Ok resp ->
            print_endline resp.Emsc_serve.Client.raw;
            if not resp.Emsc_serve.Client.ok then failed := true)
        requests;
      Emsc_serve.Client.close conn;
      if !failed then exit 1
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:"Talk to an emsc serve daemon: send compile/analyze/check/\
             status/shutdown requests and print the raw JSON response \
             lines (exit 1 if any request was rejected).")
    Term.(const run $ socket_arg $ port_arg $ host_arg $ op_arg $ files_arg
          $ timeout_arg $ fuzz_arg $ seed_arg $ machine_arg $ arch_arg
          $ merge_arg $ delta_arg $ optmove_arg $ intertile_arg $ block_arg
          $ mem_arg $ thread_arg)

(* --- emsc bench-compare ------------------------------------------------- *)

let bench_compare_cmd =
  let old_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"OLD")
  in
  let new_arg =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"NEW")
  in
  let wall_arg =
    Arg.(value & opt float Emsc_audit.Bench_compare.default_wall_tolerance
         & info [ "wall-tolerance" ] ~docv:"R"
             ~doc:"Tolerated relative wall-time growth per figure (wall \
                   time is machine-dependent; loosen this across hosts).")
  in
  let move_arg =
    Arg.(value & opt float Emsc_audit.Bench_compare.default_move_tolerance
         & info [ "move-tolerance" ] ~docv:"R"
             ~doc:"Tolerated relative growth of simulated global-memory \
                   words per kernel (deterministic; keep tight).")
  in
  let runtime_arg =
    Arg.(value
         & opt float Emsc_audit.Bench_compare.default_runtime_tolerance
         & info [ "runtime-tolerance" ] ~docv:"R"
             ~doc:"Tolerated relative wall-time growth per parallel-runtime \
                   point (domain scheduling is noisy; keep loose).")
  in
  let read_json path =
    let ic = open_in path in
    let s =
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    match Json.of_string s with
    | Ok j -> j
    | Error e ->
      Printf.eprintf "bench-compare: %s: %s\n" path e;
      exit 1
  in
  let run old_path new_path wall_tolerance move_tolerance runtime_tolerance
      json out =
    let old_j = read_json old_path and new_j = read_json new_path in
    match
      Emsc_audit.Bench_compare.compare ~wall_tolerance ~move_tolerance
        ~runtime_tolerance old_j new_j
    with
    | Error e ->
      Printf.eprintf "bench-compare: %s\n" e;
      exit 1
    | Ok report ->
      if json then emit_json out (Emsc_audit.Bench_compare.json report)
      else Format.printf "%a@." Emsc_audit.Bench_compare.pp report;
      if not (Emsc_audit.Bench_compare.ok report) then exit 1
  in
  Cmd.v
    (Cmd.info "bench-compare"
       ~doc:"Compare two BENCH_*.json artifacts and exit 1 on wall-time or \
             simulated-movement regressions (or lost measurements).")
    Term.(const run $ old_arg $ new_arg $ wall_arg $ move_arg $ runtime_arg
          $ json_arg $ out_arg)

let () =
  let info =
    Cmd.info "emsc"
      ~doc:"Explicitly-managed-scratchpad compiler (PPoPP'08 reproduction)"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ analyze_cmd; compile_cmd; profile_cmd; deps_cmd; band_cmd;
            run_cmd; check_cmd; audit_cmd; serve_cmd; client_cmd;
            bench_compare_cmd ]))
