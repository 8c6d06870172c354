open Emsc_obs

type ('a, 'b) t = {
  name : string;
  run : 'a -> 'b;
}

let v name run = { name; run }

let ( >>> ) a b = { name = a.name ^ ">>" ^ b.name; run = (fun x -> b.run (a.run x)) }

type timing = {
  stage : string;
  ms : float;
  cacheable : bool;
  cached : bool;
}

let timing_json t =
  Json.Obj
    [ ("stage", Json.Str t.stage);
      ("ms", Json.Float t.ms);
      ("cached", Json.Bool t.cached) ]

let exec ?cache ~record st x =
  let t0 = Unix.gettimeofday () in
  let label = "driver." ^ st.name in
  let result, cacheable, cached =
    Prof.probe label @@ fun () ->
    match cache with
    | Some (c, key) when Cache.enabled c ->
      let value, hit = Cache.memo c ~key (fun () -> st.run x) in
      Prof.add (if hit then "cache.hit" else "cache.miss") 1.0;
      (value, true, hit)
    | _ -> (st.run x, false, false)
  in
  let ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
  record { stage = st.name; ms; cacheable; cached };
  if Metrics.enabled () then begin
    let labels = [ ("stage", st.name) ] in
    Metrics.counter ~labels "pipeline.stage_runs" 1.0;
    if cached then Metrics.counter ~labels "pipeline.stage_cached" 1.0;
    Metrics.observe ~labels "pipeline.stage_ms" ms
  end;
  result
