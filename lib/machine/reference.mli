(** Reference executor: runs a polyhedral program directly from its
    domains and schedules (global lexicographic order), with exact
    semantics.  Used as ground truth when validating transformed code
    and as the CPU-baseline workload.

    Enumeration solves no LP per point: each statement's loop bounds
    come once from ordered Fourier–Motzkin elimination
    ({!Emsc_pip.Bounds.loop_bounds}, parameters fixed, no redundancy
    LPs), and the points are native-int loops over them.  It shares no
    code with the code generator it is used to check. *)

open Emsc_arith
open Emsc_ir

val instances : Prog.t -> param_env:(string -> Zint.t) ->
  (Prog.stmt * Zint.t array) list
(** Every dynamic statement instance, sorted by schedule time.
    Intended for small problem sizes (it materializes the list). *)

val domain_points : Prog.stmt -> param_values:Zint.t array -> int array list
(** Integer points of a statement's domain, parameters fixed to
    [param_values], in lexicographic order.
    @raise Invalid_argument when a reachable level is unbounded. *)

val run :
  Prog.t -> param_env:(string -> Zint.t) -> Memory.t ->
  ?on_global:(string -> int -> [ `Ld | `St ] -> unit) ->
  unit -> Exec.counters
