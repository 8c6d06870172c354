(* Differential harness shared by test_machine and test_runtime: runs
   one kernel under the staged executor, the parallel runtime and the
   legacy interpreter ({!Legacy_interp}), from the same pseudorandom
   memory image, and reduces each run to an observation that must be
   bit-identical across them. *)

open Emsc_arith
open Emsc_ir
open Emsc_codegen
open Emsc_core
open Emsc_machine
open Emsc_driver
module Metrics = Emsc_obs.Metrics

type kernel = {
  name : string;
  prog : Prog.t;  (* the program the AST's statements belong to *)
  ast : Ast.stm list;
  locals : string list;
  local_ref : (Prog.stmt -> Prog.access -> Ast.ref_expr option) option;
  param_env : string -> Zint.t;
  block_words : int;
  inter_tile : bool;  (* delta movement: needs chain scheduling *)
  independent : bool;  (* blocks are race-free: parallel runs apply *)
}

(* the oracle's untiled harness: every reference instance wrapped in
   single-iteration loops over its iterator names, bracketed by the
   plan's movement code *)
let instance_call ((s : Prog.stmt), iters) =
  let call =
    Ast.Stmt_call
      { stmt_id = s.Prog.id; iter_args = Array.map (fun nm -> Ast.Var nm) s.Prog.iter_names }
  in
  let rec wrap d body =
    if d < 0 then body
    else
      wrap (d - 1)
        [ Ast.Loop
            { Ast.var = s.Prog.iter_names.(d); lb = Ast.Const iters.(d);
              ub = Ast.Const iters.(d); step = Zint.one; par = Ast.Seq; body } ]
  in
  wrap (s.Prog.depth - 1) [ call ]

let buffers (plan : Plan.t) =
  List.map (fun (b : Plan.buffered) -> b.Plan.buffer.Alloc.local_name) plan.Plan.buffered

let of_compiled ~name ~param_env ~independent (c : Pipeline.compiled) =
  match (c.Pipeline.tiled, c.Pipeline.plan) with
  | Some t, Some plan ->
    let staged = c.Pipeline.options.Options.stage_data in
    Some
      { name; prog = t.Pipeline.tiled_prog; ast = t.Pipeline.ast;
        locals = (if staged then buffers plan else []);
        local_ref =
          (if staged && plan.Plan.buffered <> [] then Some (Plan.local_ref plan) else None);
        param_env;
        block_words =
          (match Zint.to_int_exn (Plan.total_footprint plan param_env) with
           | w -> max 0 w
           | exception _ -> 0);
        inter_tile =
          staged && List.exists (fun (b : Plan.buffered) -> b.Plan.reuse <> None) plan.Plan.buffered;
        independent }
  | None, Some plan ->
    let prog = c.Pipeline.prog in
    let calls = List.concat_map instance_call (Reference.instances prog ~param_env) in
    Some
      { name; prog; ast = Plan.all_move_in plan @ calls @ Plan.all_move_out plan;
        locals = buffers plan;
        local_ref = (if plan.Plan.buffered <> [] then Some (Plan.local_ref plan) else None);
        param_env; block_words = 0; inter_tile = false; independent }
  | _ -> None

let compile ~name ~param_env ~independent options prog =
  match Pipeline.compile (Pipeline.job ~options (Source.Program { name; prog })) with
  | Ok c -> of_compiled ~name ~param_env ~independent c
  | Error e -> Alcotest.failf "%s: compile failed: %s" name (Frontend.error_message e)

(* Gen program [i] of seed 7 under the fuzzer's settings: two untiled
   harnesses, and for single-statement parameter-free programs a
   mem-tiled and a block-tiled (inter-tile reuse) kernel.  [~launches]
   keeps only kernels with race-free launches, the ones a parallel run
   applies to. *)
let gen_kernels ?(launches = false) i =
  let spec = Emsc_check.Gen.generate (Random.State.make [| 7; i |]) in
  let prog = Emsc_check.Gen.materialize spec in
  let param_env = Emsc_check.Gen.param_env spec in
  let independent = Deps.analyze prog = [] in
  let base = { Options.default with Options.find_band = false } in
  let untiled =
    [ ("cell-merge", { base with Options.arch = `Cell; merge_per_array = true });
      ("gpu", { base with Options.arch = `Gpu }) ]
  in
  let tiled =
    match spec.Emsc_check.Gen.stmts with
    | [ s ] when not spec.Emsc_check.Gen.uses_param ->
      let tiles f = Options.Spec (Array.init s.Emsc_check.Gen.depth (fun _ -> f)) in
      [ ( "cell-tiled4",
          { base with Options.arch = `Cell;
                      tiling = tiles { Emsc_transform.Tile.block = None; mem = Some 4; thread = None } } );
        ( "cell-intertile4",
          { base with Options.arch = `Cell; inter_tile_reuse = true;
                      tiling = tiles { Emsc_transform.Tile.block = Some 4; mem = None; thread = None } } ) ]
    | _ -> []
  in
  let settings =
    if not launches then untiled @ tiled
    else if independent then List.filter (fun (n, _) -> n = "cell-intertile4") tiled
    else []
  in
  List.filter_map (fun (setting, options) ->
    compile ~name:(Printf.sprintf "gen#%d/%s" i setting) ~param_env ~independent options prog)
    settings

(* every suite kernel, compiled once per test process *)
let suite =
  lazy
    (List.map (fun (job : Pipeline.job) ->
       match Pipeline.compile job with
       | Ok c -> (Source.name job.Pipeline.source, c)
       | Error e -> Alcotest.failf "suite compile failed: %s" (Frontend.error_message e))
       (Emsc_kernels.Suite.jobs ()))

let suite_kernels () =
  List.filter_map (fun (name, c) ->
    of_compiled ~name ~param_env:Runner.zero_env ~independent:true c)
    (Lazy.force suite)

(* --- observations ------------------------------------------------------ *)

type obs = {
  arrays : (string * string) list;  (* name, digest of the exact bits *)
  totals : string;
  launches : string list;
  dma : (string * float) list;  (* movement tallies, from Metrics *)
  accesses : string;  (* digest of the on_global sequence; "" when unordered *)
}

let digest_floats a =
  let b = Buffer.create (8 * Array.length a) in
  Array.iter (fun x -> Buffer.add_int64_le b (Int64.bits_of_float x)) a;
  Digest.to_hex (Digest.string (Buffer.contents b))

let launch_string (l : Exec.launch) =
  Printf.sprintf "%h x%h %s" l.Exec.grid l.Exec.repeat
    (Emsc_obs.Json.to_string (Exec.counters_json l.Exec.per_block))

let dma_of (snap : Metrics.snapshot) =
  List.filter_map (fun (x : Metrics.sample) ->
    match x.Metrics.m_value with
    | Metrics.Counter v
      when List.mem x.Metrics.m_name [ "exec.copies"; "exec.move_in_words"; "exec.move_out_words" ] ->
      Some (String.concat "," (x.Metrics.m_name :: List.map snd x.Metrics.m_labels), v)
    | _ -> None)
    snap.Metrics.samples

(* run [f] on fresh memory with Metrics on; [f] gets the memory and
   an access recorder *)
let observe ?(ordered = true) (k : kernel) f =
  let m = Runner.prepare ~memory:Runner.Pseudorandom ~param_env:k.param_env k.prog in
  List.iter (Memory.declare_local m) k.locals;
  let trace = Buffer.create 4096 in
  let on_global name addr kind =
    Buffer.add_string trace name;
    Buffer.add_string trace (string_of_int addr);
    Buffer.add_char trace (match kind with `Ld -> 'L' | `St -> 'S')
  in
  let was_on = Metrics.enabled () in
  Metrics.enable ();
  Metrics.reset ();
  let (totals, launches), dma =
    Fun.protect ~finally:(fun () -> if not was_on then Metrics.disable ())
    @@ fun () ->
    let r = f m on_global in
    (r, dma_of (Metrics.snapshot ()))
  in
  { arrays =
      List.map (fun (d : Prog.array_decl) ->
        (d.Prog.array_name, digest_floats (Memory.global_data m d.Prog.array_name)))
        k.prog.Prog.arrays;
    totals = Emsc_obs.Json.to_string (Exec.counters_json totals);
    launches = List.map launch_string launches;
    dma;
    accesses = (if ordered then Digest.to_hex (Digest.string (Buffer.contents trace)) else "") }

let legacy ~mode (k : kernel) =
  observe k (fun memory on_global ->
    let r =
      Legacy_interp.run ~prog:k.prog ?local_ref:k.local_ref ~param_env:k.param_env ~memory
        ~mode:(match mode with Exec.Full -> Legacy_interp.Full | Exec.Sampled n -> Legacy_interp.Sampled n)
        ~on_global k.ast
    in
    let conv (c : Legacy_interp.counters) =
      { Exec.flops = c.Legacy_interp.flops; g_ld = c.Legacy_interp.g_ld;
        g_st = c.Legacy_interp.g_st; s_ld = c.Legacy_interp.s_ld;
        s_st = c.Legacy_interp.s_st; syncs = c.Legacy_interp.syncs;
        fences = c.Legacy_interp.fences }
    in
    ( conv r.Legacy_interp.totals,
      List.map (fun (l : Legacy_interp.launch) ->
        { Exec.grid = l.Legacy_interp.grid; per_block = conv l.Legacy_interp.per_block;
          repeat = l.Legacy_interp.repeat })
        r.Legacy_interp.launches ))

let staged ~mode (k : kernel) =
  observe k (fun memory on_global ->
    let r =
      Exec.run ~prog:k.prog ?local_ref:k.local_ref ~param_env:k.param_env ~memory ~mode
        ~on_global k.ast
    in
    (r.Exec.totals, r.Exec.launches))

let parallel ~jobs ~policy ~double_buffer (k : kernel) =
  observe ~ordered:false k (fun memory _ ->
    let cfg =
      { (Emsc_runtime.Runtime.default_cfg ~jobs) with
        Emsc_runtime.Runtime.policy; double_buffer; track_ownership = true;
        block_words = k.block_words; inter_tile_reuse = k.inter_tile }
    in
    let r =
      Emsc_runtime.Runtime.run ~prog:k.prog ?local_ref:k.local_ref ~param_env:k.param_env
        ~memory ~cfg k.ast
    in
    (r.Exec.totals, r.Exec.launches))

let check_same what (expected : obs) (got : obs) =
  let open Alcotest in
  check (list (pair string string)) (what ^ ": arrays") expected.arrays got.arrays;
  check string (what ^ ": counters") expected.totals got.totals;
  check (list string) (what ^ ": launches") expected.launches got.launches;
  check (list (pair string (float 0.0))) (what ^ ": dma tallies") expected.dma got.dma;
  if got.accesses <> "" then
    check string (what ^ ": on_global sequence") expected.accesses got.accesses
