(* dense-enum: forced NaiveDCSat on Workload.Dense at 16 pairs, one fd
   component with 2^16 maximal worlds and a query the pre-check cannot
   decide, closed loop, one client, on a warm session at
   jobs = min(2, cores). Bron-Kerbosch per clique, getMaximal,
   evaluation and the parallel engine do nearly all the work; the
   session build and Live do none. Every request is a check, forced to
   NaiveDCSat, so the check and NaiveDCSat figures describe the same
   requests. *)

open Common

let pairs = 16

(* Set-ups after each request: one takes under 1 ms, a request ~1 s. *)
let setups_per_request = 10

(* The seed permutes the order of the pending transactions, which is
   the order the clique enumeration meets them in. *)
let database ~seed =
  let db = W.Dense.db ~pairs in
  let rng = Random.State.make [| seed |] in
  bcdb_of db (shuffle rng (Array.to_list db.Core.Bcdb.pending))

let judge (r : (Core.Dcsat.outcome, Core.Dcsat.refusal) Stdlib.result) =
  match r with
  | Error e -> Error (Format.asprintf "%a" Core.Dcsat.pp_refusal e)
  | Ok o -> (
      let w = o.Core.Dcsat.stats.Core.Dcsat.worlds_checked in
      match o.Core.Dcsat.verdict with
      | Core.Dcsat.Satisfied when w = W.Dense.worlds ~pairs -> Ok ()
      | Core.Dcsat.Satisfied ->
          Error (Printf.sprintf "%d worlds checked, expected %d" w (W.Dense.worlds ~pairs))
      | v -> Error ("wrong verdict " ^ Core.Dcsat.verdict_name v))

(* [between] runs after each request; the time it returns does not
   count against [seconds]. *)
let run_loop ~between ~seconds ~errs ~request =
  let samples = ref [] in
  let t0 = now () and paused = ref 0.0 in
  while now () -. t0 -. !paused < seconds do
    let ok, s = timed request in
    (match ok with Ok () -> () | Error e -> fail errs "dense: %s" e);
    samples := s :: !samples;
    paused := !paused +. between ()
  done;
  List.rev !samples

let tail_p = 75.0
let rate samples = ops_per_s (List.map (fun s -> [ s ]) samples)

let run (a : args) =
  let jobs = min 2 (Domain.recommended_domain_count ()) in
  let q = W.Dense.query () in
  let snapshot = Core.Bcdb_file.to_binary_string (database ~seed:a.seed) in
  let errs = errors () in
  let naive ?on_event sess = judge (Core.Dcsat.naive ~jobs ?on_event sess q) in
  (* Setup: load, build and warm a session and split it into the
     query's components. The first request is not part of it: every
     request costs the same whole enumeration, which check_p50_ms
     already measures, and a single one of them would make set-up time
     as noisy as one request. *)
  let (db, sess), setup =
    setup_first (fun () ->
        let db = Result.get_ok (Core.Bcdb_file.of_binary_string snapshot) in
        let sess = Core.Session.create db in
        Core.Session.warm sess;
        ignore (Core.Session.ind_components sess q);
        (db, sess))
  in
  let untraced_seconds = if a.trace then a.seconds /. 2.0 else a.seconds in
  let gc0 = gc_mark () in
  let between () =
    if a.trace then 0.0
    else Stats.sum (List.init setups_per_request (fun _ -> setup_again setup))
  in
  let l = run_loop ~between ~seconds:untraced_seconds ~errs ~request:(fun () -> naive sess) in
  let gc = gc_per_op gc0 ~ops:(List.length l) in
  let detail l =
    [
      ("requests", J.Num (float_of_int (List.length l)));
      ("check_tail_percentile", J.Num tail_p);
      ("check_tail_samples_beyond", J.Num (float_of_int (Stats.beyond tail_p (List.length l))));
    ]
  in
  let attempted = List.length l in
  let base_detail =
    [
      ("pairs", J.Num (float_of_int pairs));
      ("jobs", J.Num (float_of_int jobs));
      ("setups", J.Num (float_of_int (setups setup)));
    ]
    @ detail l
  in
  if not a.trace then
    {
      attempted;
      failed = errs.count;
      metrics =
        [
          m "setup_s" "s" (setup_s setup);
          m "check_p50_ms" "ms" (ms (Stats.median l));
          m "check_tail_ms" "ms" (ms (Stats.percentile tail_p l));
          m "naive_p50_ms" "ms" (ms (Stats.median l));
          m "ops_per_s" "1/s" (rate l);
          m "heap_mb" "MB" (heap_mb ~keep:sess);
        ];
      detail = base_detail @ [ failures errs ];
      findings = [];
    }
  else begin
    let obs = Core.Obs.create () in
    Core.Session.set_obs sess obs;
    let tr = solver_trace () in
    let traced () =
      let on_event, cliques = observe ~naive:true tr q in
      let r = naive ~on_event sess in
      tr.cliques_per_naive <- float_of_int (cliques ()) :: tr.cliques_per_naive;
      r
    in
    let lt = run_loop ~between:(fun () -> 0.0) ~seconds:(a.seconds /. 2.0) ~errs ~request:traced in
    Core.Session.set_obs sess Core.Obs.null;
    let layers =
      layer_probes ~snapshot db [ q ]
      @ solver_layers tr ~obs ~db ~busy_capacity:(float_of_int jobs *. Stats.sum lt)
      @ gc
      @ [ overhead ~untraced_ops_per_s:(rate l) ~traced_ops_per_s:(rate lt) ]
    in
    let get name = (List.find (fun x -> x.name = name) layers).value in
    let naive_ms = ms (Stats.median l) in
    let findings =
      (if live_counters obs <> 0 then [ "live.* counters moved on dense-enum, which bypasses Live" ]
       else [])
      @ (if get "bk.cliques" < 1000.0 then [ "bk.cliques is not >> 1 on dense-enum" ] else [])
      @
      if get "session.warm_ms" > 0.05 *. naive_ms then
        [
          Printf.sprintf "session.warm_ms %.1f is not negligible next to naive_p50_ms %.1f on dense-enum"
            (get "session.warm_ms") naive_ms;
        ]
      else []
    in
    {
      attempted = attempted + List.length lt;
      failed = errs.count;
      metrics = complete_per_layer layers;
      detail = base_detail @ [ ("traced", J.Obj (detail lt)); failures errs ];
      findings;
    }
  end
