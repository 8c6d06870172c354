open Emsc_arith
open Emsc_ir
open Emsc_core
open Emsc_machine
open Emsc_obs

type memory_kind =
  | Phantom
  | Zeroed
  | Filled of (string * (int array -> float)) list
  | Pseudorandom

let no_params name = failwith ("unbound parameter " ^ name)

let zero_env _ = Zint.zero

let env_of_params params name =
  match List.assoc_opt name params with
  | Some v -> Zint.of_int v
  | None -> failwith ("parameter " ^ name ^ " needs a value")

let pseudorandom_fill m (p : Prog.t) =
  List.iter
    (fun (d : Prog.array_decl) ->
      Memory.fill m d.Prog.array_name (fun idx ->
        let h = Array.fold_left (fun acc i -> (acc * 31) + i) 17 idx in
        float_of_int (h mod 101) /. 101.0))
    p.Prog.arrays

let prepare ?(memory = Zeroed) ~param_env (p : Prog.t) =
  match memory with
  | Phantom -> Memory.create_phantom p ~param_env
  | Zeroed -> Memory.create p ~param_env
  | Filled inits ->
    let m = Memory.create p ~param_env in
    List.iter (fun (a, f) -> Memory.fill m a f) inits;
    m
  | Pseudorandom ->
    let m = Memory.create p ~param_env in
    pseudorandom_fill m p;
    m

type backend = [ `Seq | `Par of int ]

(* Parallel runs honor the machine's concurrent-blocks rule: at most
   [occupancy * fanout] arenas live at once (one staging level per
   multiprocessor), with occupancy derived from the block's effective
   scratchpad need (doubled when double-buffering keeps two windows
   resident).  The machine defaults to the paper's GPU; any hierarchy
   works through its staging level. *)
let par_cfg ?(hierarchy = Hierarchy.gtx8800) ~jobs ~policy ~double_buffer
    ~track_ownership ~block_words ?(inter_tile_reuse = false) () =
  let s = Hierarchy.staging hierarchy in
  let occ =
    Timing.occupancy hierarchy
      ~smem_bytes_per_block:
        (Timing.effective_smem_bytes ~double_buffer
           ~word_bytes:s.Hierarchy.l_word_bytes block_words)
  in
  { (Emsc_runtime.Runtime.default_cfg ~jobs) with
    Emsc_runtime.Runtime.policy; double_buffer; track_ownership;
    max_concurrent_blocks = Some (occ * s.Hierarchy.l_fanout);
    block_words; inter_tile_reuse }

let execute ~prog ?local_ref ?(locals = []) ?(mode = Exec.Sampled 6) ?memory
    ?(param_env = no_params) ?on_global ?(backend = `Seq)
    ?(policy = Emsc_runtime.Runtime.Static) ?(double_buffer = false)
    ?(track_ownership = false) ?(block_words = 0) ?(inter_tile_reuse = false)
    ?hierarchy ast =
  let m = prepare ?memory ~param_env prog in
  List.iter (Memory.declare_local m) locals;
  let result =
    match backend with
    | `Seq ->
      Prof.probe "driver.execute" @@ fun () ->
      Exec.run ~prog ?local_ref ~param_env ~memory:m ~mode ?on_global ast
    | `Par jobs ->
      (* parallel execution is Full-fidelity by construction: sampling
         extrapolates from iteration deltas, a sequential notion *)
      let cfg =
        par_cfg ?hierarchy ~jobs ~policy ~double_buffer ~track_ownership
          ~block_words ~inter_tile_reuse ()
      in
      Prof.probe "driver.execute" @@ fun () ->
      Emsc_runtime.Runtime.run ~prog ?local_ref ~param_env ~memory:m
        ?on_global ~cfg ast
  in
  (m, result)

let simulate ?(mode = Exec.Sampled 6) ?(memory = Phantom) ?param_env
    ?on_global ?(backend = `Seq) ?policy ?(double_buffer = false)
    ?track_ownership ?hierarchy (c : Pipeline.compiled) =
  match (c.Pipeline.tiled, c.Pipeline.plan) with
  | Some t, Some plan ->
    let staged = c.Pipeline.options.Options.stage_data in
    let locals =
      if staged then
        List.map
          (fun (b : Plan.buffered) -> b.Plan.buffer.Alloc.local_name)
          plan.Plan.buffered
      else []
    in
    let local_ref =
      if staged && plan.Plan.buffered <> [] then Some (Plan.local_ref plan)
      else None
    in
    let block_words =
      match backend with
      | `Seq -> 0
      | `Par _ -> (
        let env = match param_env with Some e -> e | None -> no_params in
        match Zint.to_int_exn (Plan.total_footprint plan env) with
        | words -> max 0 words
        | exception _ -> 0)
    in
    let mode = match backend with `Seq -> mode | `Par _ -> Exec.Full in
    (* chain-aware scheduling is needed exactly when the generated
       movement carries delta guards — i.e. some buffer planned with
       inter-tile reuse *)
    let inter_tile_reuse =
      staged
      && List.exists
           (fun (b : Plan.buffered) -> b.Plan.reuse <> None)
           plan.Plan.buffered
    in
    execute ~prog:t.Pipeline.tiled_prog ?local_ref ~locals ~mode ~memory
      ?param_env ?on_global ~backend ?policy ~double_buffer ?track_ownership
      ~block_words ~inter_tile_reuse ?hierarchy t.Pipeline.ast
  | _ ->
    invalid_arg
      "Emsc_driver.Runner.simulate: compilation has no generated kernel \
       (compile with tiling)"

(* Record runtime events around [f] and analyze them.  Draining is
   non-destructive, so a later [Events.write_merged_chrome] still sees
   the run's tracks; [reset] beforehand keeps one profiled run per
   report.  The previous enabled state is restored on exit. *)
let with_runtime_report ?capacity f =
  let was_on = Events.enabled () in
  Events.reset ();
  Events.enable ?capacity ();
  Fun.protect ~finally:(fun () -> if not was_on then Events.disable ())
  @@ fun () ->
  let result = f () in
  (result, Runtime_report.build (Events.drain ()))

let reference ?memory ?(param_env = no_params) ?on_global (p : Prog.t) =
  let m = prepare ?memory ~param_env p in
  let counters =
    Prof.probe "driver.reference" @@ fun () ->
    Reference.run p ~param_env m ?on_global ()
  in
  (m, counters)
