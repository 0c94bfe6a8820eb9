(* batch-fig6: cold `bcdb check`-style requests on the Fig. 6d top point
   (50 pending blocks plus 20 double-spends), closed loop, one client.
   Every request builds a fresh session from the loaded database, so the
   session build, pre-check, components, covers and the first clique of
   Bron-Kerbosch on a near-complete fd graph do the work; Live does none. *)

open Common

let contradictions = 20

type kind = Check | Naive

(* One cycle: the check mix through [Solver.solve] plus a second qa-sat
   check, then a forced NaiveDCSat request on each unsatisfied variant.
   Runs are whole cycles, so every request type has the same number of
   samples and a percentile's rank lands on the same request type on
   every run. The sixth pre-check-decided check moves the median's rank,
   7.5 of 15 checks per cycle, into the middle of the cheapest OptDCSat
   variant's samples instead of onto their edge with the next
   variant's; the p75 (11.25 of 15) sits inside the third. *)
let cycle eco =
  let qa_sat = List.find_map (fun (f, s, _) -> if f = Q.Qa then Some s else None) eco.queries in
  List.map (fun q -> (Check, q)) (check_mix eco @ Option.to_list qa_sat)
  @ List.map (fun q -> (Naive, q)) (unsat eco)

let type_name (kind, qy) = (match kind with Check -> "" | Naive -> "naive-") ^ qy.qname

type loop = {
  rounds : (kind * float) list list;  (** Per cycle, each request's service time. *)
  per_type : (string * float list) list;
}

let samples kind l =
  List.concat_map (List.filter_map (fun (k, s) -> if k = kind then Some s else None)) l.rounds

(* A cold request starts from a fresh process's heap: the garbage of the
   previous request is collected, untimed, before the next one starts.
   [between] runs after each cycle; the time it returns does not count
   against [seconds]. *)
let run_loop ?(between = fun () -> 0.0) ~seconds ~errs ~request reqs =
  let rounds = ref [] and per_type = Hashtbl.create 16 in
  let t0 = now () and paused = ref 0.0 in
  while now () -. t0 -. !paused < seconds do
    let round =
      List.map
        (fun ((kind, qy) as r) ->
          Gc.full_major ();
          let ok, s = timed (fun () -> request kind qy) in
          (match ok with Ok () -> () | Error e -> fail errs "%s: %s" qy.qname e);
          let ty = type_name r in
          Hashtbl.replace per_type ty (s :: Option.value ~default:[] (Hashtbl.find_opt per_type ty));
          (kind, s))
        reqs
    in
    rounds := round :: !rounds;
    paused := !paused +. between ()
  done;
  {
    rounds = List.rev !rounds;
    per_type = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) per_type []);
  }

let judge (r : (Core.Dcsat.outcome, string) Stdlib.result) qy =
  match r with
  | Error e -> Error e
  | Ok o when verdict_ok o ~sat:qy.sat -> Ok ()
  | Ok o -> Error ("wrong verdict " ^ Core.Dcsat.verdict_name o.Core.Dcsat.verdict)

let refusal r = Result.map_error (Format.asprintf "%a" Core.Dcsat.pp_refusal) r

(* The untraced request path: what `bcdb check` does. *)
let plain db kind qy =
  let sess = Core.Session.create db in
  match kind with
  | Check -> judge (Result.map fst (Core.Solver.solve sess qy.q)) qy
  | Naive -> judge (refusal (Core.Dcsat.naive sess qy.q)) qy

(* The traced request path: the solver the plain path would dispatch to,
   called directly so its decisions are observable. *)
let traced db ~obs ~strategy tr kind qy =
  let sess = Core.Session.create ~obs db in
  let naive_path = kind = Naive || strategy qy = Core.Solver.Naive in
  let on_event, cliques = observe ~naive:naive_path tr qy.q in
  let naive () =
    let r = refusal (Core.Dcsat.naive ~on_event sess qy.q) in
    (r, cliques ())
  in
  match kind with
  | Naive ->
      let r, n = naive () in
      tr.cliques_per_naive <- float_of_int n :: tr.cliques_per_naive;
      judge r qy
  | Check -> (
      match strategy qy with
      | Core.Solver.Opt -> judge (refusal (Core.Dcsat.opt ~on_event sess qy.q)) qy
      | Core.Solver.Naive -> judge (fst (naive ())) qy
      | Core.Solver.Tractable _ | Core.Solver.Brute_force ->
          judge (Result.map fst (Core.Solver.solve sess qy.q)) qy)

let tail_p = 75.0

let rate l = ops_per_s (List.map (List.map snd) l.rounds)

let loop_detail l =
  let n = List.length (samples Check l) in
  [
    ("cycles", J.Num (float_of_int (List.length l.rounds)));
    ("check_samples", J.Num (float_of_int n));
    ("naive_samples", J.Num (float_of_int (List.length (samples Naive l))));
    ("check_tail_percentile", J.Num tail_p);
    ("check_tail_samples_beyond", J.Num (float_of_int (Stats.beyond tail_p n)));
    ("p50_ms_per_type", J.Obj (List.map (fun (k, v) -> (k, J.Num (ms (Stats.median v)))) l.per_type));
  ]

let run (a : args) =
  let eco = economy () in
  let rng = Random.State.make [| a.seed |] in
  let db =
    bcdb_of eco.full
      (block_txs eco ~blocks:(List.length eco.block_sizes) @ draw rng contradictions eco.pool)
  in
  let snapshot = Core.Bcdb_file.to_binary_string db in
  let reqs = cycle eco in
  let distinct = List.concat_map (fun (_, s, u) -> [ s; u ]) eco.queries in
  let errs = errors () in
  let strategies = Hashtbl.create 16 in
  (* Setup: load, build and warm a session, answer each query once;
     again after every cycle of the untraced loop. *)
  let loaded, setup =
    setup_first (fun () ->
        let db = Result.get_ok (Core.Bcdb_file.of_binary_string snapshot) in
        let sess = Core.Session.create db in
        Core.Session.warm sess;
        List.iter
          (fun qy ->
            match Core.Solver.solve sess qy.q with
            | Ok (o, st) ->
                Hashtbl.replace strategies qy.qname st;
                if not (verdict_ok o ~sat:qy.sat) then fail errs "setup %s: wrong verdict" qy.qname
            | Error e -> fail errs "setup %s: %s" qy.qname e)
          distinct;
        db)
  in
  let untraced_seconds = if a.trace then a.seconds /. 2.0 else a.seconds in
  let gc0 = gc_mark () in
  let between = if a.trace then None else Some (fun () -> setup_again setup) in
  let l = run_loop ?between ~seconds:untraced_seconds ~errs ~request:(plain loaded) reqs in
  let ops = List.length reqs * List.length l.rounds in
  let gc = gc_per_op gc0 ~ops in
  let attempted = (setups setup * List.length distinct) + ops in
  let detail =
    ("pending_txs", J.Num (float_of_int (Core.Bcdb.pending_count db)))
    :: ("setups", J.Num (float_of_int (setups setup)))
    :: loop_detail l
  in
  if not a.trace then
    {
      attempted;
      failed = errs.count;
      metrics =
        [
          m "setup_s" "s" (setup_s setup);
          m "check_p50_ms" "ms" (ms (Stats.median (samples Check l)));
          m "check_tail_ms" "ms" (ms (Stats.percentile tail_p (samples Check l)));
          m "naive_p50_ms" "ms" (ms (Stats.median (samples Naive l)));
          m "ops_per_s" "1/s" (rate l);
          m "heap_mb" "MB" (heap_mb ~keep:loaded);
        ];
      detail = detail @ [ failures errs ];
      findings = [];
    }
  else begin
    let obs = Core.Obs.create () in
    let tr = solver_trace () in
    let strategy qy = Hashtbl.find strategies qy.qname in
    let lt =
      run_loop ~seconds:(a.seconds /. 2.0) ~errs ~request:(traced loaded ~obs ~strategy tr) reqs
    in
    let traced_all = samples Check lt @ samples Naive lt in
    let layers =
      layer_probes ~snapshot loaded (List.map (fun qy -> qy.q) distinct)
      @ solver_layers tr ~obs ~db:loaded ~busy_capacity:(Stats.sum traced_all)
      @ gc
      @ [ overhead ~untraced_ops_per_s:(rate l) ~traced_ops_per_s:(rate lt) ]
    in
    let findings =
      (if live_counters obs <> 0 then [ "live.* counters moved on batch-fig6, which bypasses Live" ]
       else [])
      @
      if List.exists (fun n -> n <> 1.0) tr.cliques_per_naive then
        [ "bk.cliques is not 1 on every forced NaiveDCSat request of batch-fig6" ]
      else []
    in
    {
      attempted = attempted + List.length traced_all;
      failed = errs.count;
      metrics = complete_per_layer layers;
      detail = detail @ [ ("traced", J.Obj (loop_detail lt)); failures errs ];
      findings;
    }
  end
