(** The executor: runs kernel ASTs on the simulated machine with event
    accounting.

    Code is staged before it runs: each [Ast.stm] list compiles once
    into immutable closures over a frame of native-int slots.  Loop
    variables, statement iterators and names bound from outside become
    slot indices, parameters become constants, and array names resolve
    to memory handles when a frame is made.  Index and bound arithmetic
    is overflow-checked: a step that overflows is redone exactly in
    {!Zint}, and a value that does not fit a native [int] raises the
    [Failure] of {!Zint.to_int_exn} instead of wrapping.  Loop bounds
    and steps must therefore fit a native [int].

    Two fidelities:
    - [Full]: every iteration executes; array contents are exact (used
      by correctness tests comparing against the reference executor).
    - [Sampled n]: loops with at least [n] iterations execute only
      their first and last iteration and the middle is accounted as
      [(trip-2) * (first+last)/2] — exact for iteration costs that are
      constant or vary linearly in the loop variable (rectangles,
      triangles, trapezoids), which covers the loop nests the tiler
      emits.  Array contents are then meaningless; only counters and
      launch shapes are valid.

    A "launch" is a maximal outermost band of [Block]-parallel loops:
    its grid size and average per-block counters feed the GPU timing
    model. *)

open Emsc_arith
open Emsc_ir

type counters = {
  mutable flops : float;
  mutable g_ld : float;   (** global words loaded *)
  mutable g_st : float;
  mutable s_ld : float;   (** scratchpad words loaded *)
  mutable s_st : float;
  mutable syncs : float;  (** intra-block barriers *)
  mutable fences : float;
      (** barriers bracketing global-memory movement phases *)
}

val fresh : unit -> counters
val total_global : counters -> float
val total_smem : counters -> float

val add_into : counters -> counters -> unit
(** [add_into src dst] accumulates [src] into [dst].  Every counter is
    an integer-valued event count stored in a float, so the sum is
    exact and independent of accumulation order — the property the
    parallel backend relies on for bit-identical totals. *)

val scale_counters : counters -> float -> counters

val counters_json : counters -> Emsc_obs.Json.t

type launch = {
  grid : float;           (** number of thread blocks *)
  per_block : counters;   (** average per-block work *)
  repeat : float;
      (** dynamic occurrence count: in [Sampled] mode a launch inside a
          sampled loop stands for the loop's middle iterations too *)
}

type result = {
  totals : counters;
  launches : launch list;  (** in execution order *)
}

type mode = Full | Sampled of int

val run :
  prog:Prog.t ->
  ?local_ref:(Prog.stmt -> Prog.access -> Emsc_codegen.Ast.ref_expr option) ->
  param_env:(string -> Zint.t) ->
  memory:Memory.t ->
  ?mode:mode ->
  ?on_global:(string -> int -> [ `Ld | `St ] -> unit) ->
  Emsc_codegen.Ast.stm list ->
  result
(** [local_ref] redirects accesses into scratchpad buffers (from
    {!Emsc_core.Plan.local_ref}); buffers it names must be declared in
    [memory] by the caller via {!Memory.declare_local}.  [on_global] is
    called with the flat word address for each global access (cache
    simulation hook); it is only invoked in [Full] mode. *)

val run_instances :
  prog:Prog.t ->
  param_env:(string -> Zint.t) ->
  memory:Memory.t ->
  ?on_global:(string -> int -> [ `Ld | `St ] -> unit) ->
  ((Prog.stmt -> int array -> unit) -> unit) ->
  counters
(** [run_instances ... iter] executes the statement instances [iter]
    passes to its argument, in that order (reference path): exact
    semantics, no rewriting, [Full] fidelity.  Each statement body is
    staged once; the iterator array may be reused between calls. *)

val expr_flops : Prog.expr -> int

(** {2 Block-granular execution}

    The parallel runtime ([Emsc_runtime]) executes one thread block at
    a time, each on its own domain with its own memory view.  A
    [session] packages everything shareable across blocks: the
    statement tables, the access rewrite, and the code staged so far.
    Staging happens on the calling domain; the staged code is immutable
    and shared read-only by every worker, each running it in its own
    frame. *)

type session

val session :
  prog:Prog.t ->
  ?local_ref:(Prog.stmt -> Prog.access -> Emsc_codegen.Ast.ref_expr option) ->
  param_env:(string -> Zint.t) ->
  unit ->
  session

type staged
(** Code staged for one statement list and one list of bound names. *)

val stage : session -> bound:string list -> Emsc_codegen.Ast.stm list -> staged
(** [stage s ~bound stms] compiles [stms] with [bound] (later names
    shadow earlier ones) taken from the values {!run_block} is given.
    Memoised per session on [bound] and the physical identity of the
    statements, so re-staging the same phase is a lookup; each actual
    compilation bumps the [Prof] counter [exec.stagings].  Not
    domain-safe: stage from one domain. *)

type block_dma = {
  copies : float;          (** staged copies executed *)
  moved_in : (string * float) list;
      (** words moved global->local, per buffer, sorted by name *)
  moved_out : (string * float) list;
}

type block_outcome = {
  b_counters : counters;
  b_dma : block_dma;
}

val run_block :
  staged ->
  memory:Memory.t ->
  ?mode:mode ->
  ?on_global:(string -> int -> [ `Ld | `St ] -> unit) ->
  ?collect_dma:bool ->
  int array ->
  block_outcome
(** Execute staged code in a fresh frame, the bound names taking the
    given values (one per name, in order), with a fresh counter set.
    Never touches [Metrics] or [Prof] (safe on a worker domain);
    movement is tallied into the outcome when [collect_dma] is set.
    Block loops inside the code are treated as plain loops — launch
    bookkeeping belongs to the caller. *)

val flush_dma_metrics : block_dma -> unit
(** Flush a movement tally into the [Metrics] registry under the same
    names the sequential executor uses ([exec.copies],
    [exec.move_in_words]/[exec.move_out_words] per buffer).  Call from
    the main domain only. *)
