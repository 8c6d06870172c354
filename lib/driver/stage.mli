(** The typed pass abstraction: a named pure function from one
    pipeline artifact type to the next.

    Stages compose with {!(>>>)}; {!exec} is the single place where a
    stage run is probed (an [Emsc_obs.Prof] span named
    ["driver.<stage>"]), timed, counted against the memo cache, and
    reported, so every consumer of the pipeline gets identical
    observability for free. *)

type ('a, 'b) t = private {
  name : string;
  run : 'a -> 'b;  (** must be pure: results are memoized by content *)
}

val v : string -> ('a -> 'b) -> ('a, 'b) t

val ( >>> ) : ('a, 'b) t -> ('b, 'c) t -> ('a, 'c) t
(** [a >>> b] runs [a] then [b]; the composite is named
    ["a>>b"]. *)

type timing = {
  stage : string;
  ms : float;
  cacheable : bool;  (** a live cache was consulted *)
  cached : bool;     (** ... and hit *)
}

val timing_json : timing -> Emsc_obs.Json.t

val exec :
  ?cache:Cache.t * string ->
  record:(timing -> unit) ->
  ('a, 'b) t -> 'a -> 'b
(** Run the stage: inside a probe, through the memo cache when
    [(cache, key)] is given, reporting a {!timing} to [record]. *)
