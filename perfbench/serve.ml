(* serve-mempool: one Live session serving a replayed mempool stream, open
   loop with Poisson arrivals on a virtual clock. The start state is the
   Fig. 6 economy with its first 40 pending blocks (plus the seeded
   double-spends); the stream then replays the remaining blocks'
   transactions as adds, each mutation followed by two checks rotating
   over the check mix, with RBF swaps (evict a pending transaction, add
   its double-spend from the conflict pool) and confirms of the oldest
   block's transactions in between. Requests are served back to back and
   timed; arrivals are simulated, so the generator is never late, and a
   request's latency is its queueing delay behind the single writer plus
   its own service time. *)

open Common

let start_blocks = 40
let contradictions = 20

(* Offered load, about a fifth of the capacity measured on a 2-core
   x86-64 host when this benchmark was defined (~85 ms mean service, so
   ~12 requests/s). Checks that arrive while the writer is busy wait,
   and at higher load the median check lands on the step between checks
   that wait and checks that do not: at 5/s (about 0.4 of capacity) it
   read 10-29 ms across seeds. Latency at other fixed rates is reported
   in the details. *)
let rate = 2.5

let checks_per_mutation = 2
let confirms_per_round = 2
let tail_p = 95.0
let verify_every = 25

(* Rounds between two set-ups of the untraced half (a round ~1.3 s of
   service, a set-up ~0.7 s). *)
let setup_every = 4
let replays = 15
let slo_s = 1.0

(* The live heap rises and falls by ~40% over the stream, round by round
   and the same for every seed, so the heap at whichever round a run
   stops on would follow the host's speed. heap_mb is read, untimed, at
   the end of a fixed round instead (or at the end of a shorter run). *)
let heap_round = 10

type op =
  | Add of Core.Pending.t
  | Evict of string
  | Confirm of string
  | Check of query

let op_name = function
  | Add _ -> "add"
  | Evict _ -> "evict"
  | Confirm _ -> "confirm"
  | Check _ -> "check"

(* TxIn(prevTxId, prevSer, pk, amount, newTxId, sig): the outpoint a row
   spends, and the transaction ids a transaction spends from. *)
let spends (p : Core.Pending.t) =
  List.map (fun t -> (t.(0), t.(1))) (Core.Pending.rows_for p "TxIn")

let parents p = List.map fst (spends p)

(* Transactions the unsatisfied variants' witnesses are built from: the
   planted chain, the star spender's payments and the aggregate
   receiver's income. *)
let planted_txs (pl : planted) txs =
  let has rel col pk (p : Core.Pending.t) =
    List.exists (fun t -> t.(col) = Relational.Value.Str pk) (Core.Pending.rows_for p rel)
  in
  List.filter
    (fun (p : Core.Pending.t) ->
      List.mem p.Core.Pending.label pl.chain
      || has "TxIn" 2 pl.star_spender p
      || has "TxOut" 2 pl.agg_receiver p)
    txs

(* The stream, planned up front against a simulated mempool so that
   every mutation is valid when it runs. An RBF target is a pending
   transaction that no planted transaction descends from, so every
   check keeps the verdict of its variant; its descendants stay pending
   but can never be included. A confirm takes the oldest pending
   transaction whose parents are all in R, keeping R |= I. Every round
   holds one full rotation of the check mix, two checks after each of
   its seven mutations: arrivals, an RBF swap and [confirms_per_round]
   confirms. The mempool grows by one transaction per round, about 2%
   over a run, so every round costs about the same however far into the
   stream a run gets (NaiveDCSat's cost grows faster than linearly in
   the pending count). *)
let plan eco rng ~start ~tail ~rbf_pool =
  let pending = Hashtbl.create 4096 and evicted = Hashtbl.create 64 in
  List.iter (fun (p : Core.Pending.t) -> Hashtbl.replace pending p.Core.Pending.label ()) start;
  let blocks = block_txs eco ~blocks:(List.length eco.block_sizes) in
  let by_label = Hashtbl.create 4096 and owner = Hashtbl.create 4096 in
  List.iter
    (fun (p : Core.Pending.t) ->
      Hashtbl.replace by_label p.Core.Pending.label p;
      List.iter (fun o -> Hashtbl.replace owner o p.Core.Pending.label) (spends p))
    blocks;
  (* Ancestors of the planted transactions, planted ones included. *)
  let protected = Hashtbl.create 256 in
  let rec protect l =
    if not (Hashtbl.mem protected l) then begin
      Hashtbl.replace protected l ();
      match Hashtbl.find_opt by_label l with
      | Some p ->
          List.iter (function Relational.Value.Str t -> protect t | _ -> ()) (parents p)
      | None -> ()
    end
  in
  List.iter (fun (p : Core.Pending.t) -> protect p.Core.Pending.label) (planted_txs eco.planted blocks);
  let is_pending l = Hashtbl.mem pending l in
  let target (c : Core.Pending.t) = List.find_map (Hashtbl.find_opt owner) (spends c) in
  let rbf = ref (shuffle rng rbf_pool) in
  let next_rbf () =
    let ok c =
      match target c with
      | Some x -> is_pending x && not (Hashtbl.mem protected x)
      | None -> false
    in
    match List.find_opt ok !rbf with
    | None -> []
    | Some c ->
        rbf := List.filter (fun c' -> c' != c) !rbf;
        let x = Option.get (target c) in
        Hashtbl.remove pending x;
        Hashtbl.replace evicted x ();
        Hashtbl.replace pending c.Core.Pending.label ();
        [ Evict x; Add c ]
  in
  let oldest = ref (block_txs eco ~blocks:start_blocks) in
  let next_confirm () =
    let ready (p : Core.Pending.t) =
      is_pending p.Core.Pending.label
      && List.for_all
           (function
             | Relational.Value.Str t -> not (is_pending t || Hashtbl.mem evicted t)
             | _ -> true)
           (parents p)
    in
    oldest := List.filter (fun (p : Core.Pending.t) -> is_pending p.Core.Pending.label) !oldest;
    match List.find_opt ready !oldest with
    | None -> []
    | Some p ->
        Hashtbl.remove pending p.Core.Pending.label;
        [ Confirm p.Core.Pending.label ]
  in
  let mix = Array.of_list (check_mix eco) in
  let turn = ref 0 in
  let checks () =
    List.init checks_per_mutation (fun _ ->
        let q = mix.(!turn mod Array.length mix) in
        incr turn;
        Check q)
  in
  let with_checks muts = List.concat_map (fun mu -> mu :: checks ()) muts in
  let per_round = Array.length mix / checks_per_mutation in
  let rec rounds tail acc =
    let swaps = next_rbf () @ List.concat (List.init confirms_per_round (fun _ -> next_confirm ())) in
    let need = per_round - List.length swaps in
    if List.length tail < need then List.rev acc
    else begin
      let adds = List.filteri (fun i _ -> i < need) tail in
      List.iter (fun (p : Core.Pending.t) -> Hashtbl.replace pending p.Core.Pending.label ()) adds;
      let round = with_checks (List.map (fun p -> Add p) adds @ swaps) in
      rounds (List.filteri (fun i _ -> i >= need) tail) (round :: acc)
    end
  in
  rounds tail []

(* ------------------------------------------------------------------ *)
(* The virtual clock. *)

(* Client latency of every request when arrivals come at [rate] with the
   unit-mean exponential gaps [gaps]; requests are served in order. *)
let latencies ~gaps ~rate services =
  let n = Array.length services in
  let lat = Array.make n 0.0 in
  let arrival = ref 0.0 and free = ref 0.0 in
  for i = 0 to n - 1 do
    arrival := !arrival +. (gaps.(i) /. rate);
    let start = Float.max !arrival !free in
    free := start +. services.(i);
    lat.(i) <- !free -. !arrival
  done;
  lat

let gap_sequences ~seed n =
  List.init replays (fun r ->
      let rng = Random.State.make [| seed; r |] in
      Array.init n (fun _ -> -.Float.log (1.0 -. Random.State.float rng 1.0)))

let check_latencies ~is_check lat =
  List.filteri (fun i _ -> is_check.(i)) (Array.to_list lat)

(* Median over the arrival replays of a percentile of check latency. *)
let latency_at ~seqs ~is_check ~rate services p =
  Stats.median
    (List.map
       (fun gaps -> Stats.percentile p (check_latencies ~is_check (latencies ~gaps ~rate services)))
       seqs)

(* The highest rate whose check p99 stays within the limit with no
   backlog left at the end, for one arrival sequence; latency only grows
   with the rate, so bisection on log(rate) finds it. *)
let slo_rate ~gaps ~is_check services =
  let meets rate =
    let lat = latencies ~gaps ~rate services in
    Stats.percentile 99.0 (check_latencies ~is_check lat) <= slo_s
    && lat.(Array.length lat - 1) <= slo_s
  in
  let lo = ref 0.01 and hi = ref 1000.0 in
  if not (meets !lo) then 0.0
  else begin
    for _ = 1 to 40 do
      let mid = Float.sqrt (!lo *. !hi) in
      if meets mid then lo := mid else hi := mid
    done;
    !lo
  end

(* ------------------------------------------------------------------ *)

type sample = {
  kind : string;
  service : float;
  naive : bool;
      (** A check the solver routed to NaiveDCSat that the pre-check did
          not decide: one that enumerated. *)
}

(* What the traced half learns beside the stream, untimed for every
   end-to-end figure. A check that re-solved components (a
   [Live.cache_stats] delta with [cache_dirty > 0]) is repeated at once,
   with no mutation between, so the repeat finds every component
   cached: each such pair gives a dirty and a clean service time of the
   same query. A check that enumerated is solved once more by
   [Dcsat.naive] on the live session with a tracing [on_event], for the
   Bron-Kerbosch figures, which [Live.check] does not report. The last
   such request's cliques and world are kept, with a copy of the
   database they belong to, for the Get_maximal and evaluation
   replays. *)
type probe = {
  tr : solver_trace;
  mutable pairs : (string * float * float) list;
      (** Query name, dirty service, clean service (seconds). *)
  mutable ops : int;
  mutable replay_db : Core.Bcdb.t option;
}

let dirtied (c0 : Core.Live.cache_stats) (c1 : Core.Live.cache_stats) =
  c1.Core.Live.cache_dirty > c0.Core.Live.cache_dirty

let probe_check live ~errs pb qy ~service ~naive ~c0 ~c1 =
  let judge what = function
    | Some o when verdict_ok o ~sat:qy.sat -> true
    | _ ->
        fail errs "%s %s: wrong or failed" what qy.qname;
        false
  in
  if c1.Core.Live.cache_checks > c0.Core.Live.cache_checks && dirtied c0 c1 then begin
    let r, s = timed (fun () -> Core.Live.check live qy.q) in
    let c2 = Core.Live.cache_stats live in
    pb.ops <- pb.ops + 1;
    if judge "repeated check" (Result.to_option (Result.map fst r)) && not (dirtied c1 c2) then
      pb.pairs <- (qy.qname, service, s) :: pb.pairs
  end;
  if naive then begin
    pb.tr.cliques <- [];
    pb.tr.worlds <- [];
    pb.tr.n_worlds <- 0;
    pb.replay_db <-
      Result.to_option
        (Core.Bcdb_file.of_binary_string (Core.Bcdb_file.to_binary_string (Core.Live.db live)));
    let on_event, cliques = observe ~naive:true pb.tr qy.q in
    let r = Core.Dcsat.naive ~on_event (Core.Live.session live) qy.q in
    pb.tr.cliques_per_naive <- float_of_int (cliques ()) :: pb.tr.cliques_per_naive;
    pb.ops <- pb.ops + 1;
    ignore (judge "traced NaiveDCSat" (Result.to_option r))
  end

(* Serves whole rounds until [seconds] of service have been measured;
   returns each served round's samples and the unserved rounds. With
   [heap], the live heap is read at the end of round [heap_round]; with
   [probe], every check is followed by [probe_check]; [between] runs
   after every [setup_every] rounds. *)
let run_stream ?heap ?probe ?(between = ignore) live ~seconds ~errs ~verify stream =
  let spent = ref 0.0 and checks = ref 0 in
  let exec op =
    match op with
    | Add p ->
        Core.Live.add live ~label:p.Core.Pending.label p.Core.Pending.rows;
        None
    | Evict l -> (match Core.Live.evict live l with Ok () -> None | Error e -> Some e)
    | Confirm l -> (match Core.Live.confirm live l with Ok () -> None | Error e -> Some e)
    | Check _ -> None
  in
  let run_op op =
    match op with
    | Check qy ->
        let c0 = Core.Live.cache_stats live in
        let r, s = timed (fun () -> Core.Live.check live qy.q) in
        let c1 = Core.Live.cache_stats live in
        let naive =
          match r with
          | Ok (o, st) ->
              if not (verdict_ok o ~sat:qy.sat) then
                fail errs "check %s: %s" qy.qname (Core.Dcsat.verdict_name o.Core.Dcsat.verdict);
              st = Core.Solver.Naive
              && not o.Core.Dcsat.stats.Core.Dcsat.precheck_decided
          | Error e ->
              fail errs "check %s: %s" qy.qname e;
              false
        in
        incr checks;
        if verify && !checks mod verify_every = 0 then begin
          (* Untimed: the live answer against a fresh solve of Live.db. *)
          let fresh = Core.Solver.solve (Core.Session.create (Core.Live.db live)) qy.q in
          match (r, fresh) with
          | Ok (o, _), Ok (f, _)
            when Core.Dcsat.verdict_name o.Core.Dcsat.verdict
                 = Core.Dcsat.verdict_name f.Core.Dcsat.verdict
                 && o.Core.Dcsat.witness_world = f.Core.Dcsat.witness_world ->
              ()
          | _ -> fail errs "check %s: Live.check disagrees with a fresh Solver.solve" qy.qname
        end;
        Option.iter (fun pb -> probe_check live ~errs pb qy ~service:s ~naive ~c0 ~c1) probe;
        { kind = "check"; service = s; naive }
    | op ->
        let e, s = timed (fun () -> exec op) in
        Option.iter (fail errs "%s: %s" (op_name op)) e;
        { kind = op_name op; service = s; naive = false }
  in
  let rec go served = function
    | round :: rest when !spent < seconds ->
        let smps = List.map run_op round in
        spent := !spent +. Stats.sum (List.map (fun s -> s.service) smps);
        let served = smps :: served in
        (match heap with
        | Some h when List.length served = heap_round -> h := Some (heap_mb ~keep:live)
        | _ -> ());
        if List.length served mod setup_every = 0 then between ();
        go served rest
    | rest -> (List.rev served, rest)
  in
  go [] stream

(* The traced half serves later rounds of the stream than the untraced
   one, so tracing overhead is measured on matched work instead: rounds
   of the check mix on the same mempool, alternately with the traced
   recorder and without. *)
let paired_overhead live obs ~errs mix =
  let pass o =
    Core.Session.set_obs (Core.Live.session live) o;
    List.map
      (fun qy ->
        let r, s = timed (fun () -> Core.Live.check live qy.q) in
        (match r with
        | Ok (v, _) when verdict_ok v ~sat:qy.sat -> ()
        | _ -> fail errs "overhead check %s: wrong or failed" qy.qname);
        s)
      mix
  in
  let plain = ref [] and traced = ref [] in
  for _ = 1 to 5 do
    plain := pass Core.Obs.null @ !plain;
    traced := pass obs @ !traced
  done;
  Core.Session.set_obs (Core.Live.session live) Core.Obs.null;
  overhead
    ~untraced_ops_per_s:(1.0 /. Stats.median !plain)
    ~traced_ops_per_s:(1.0 /. Stats.median !traced)

let p50_of kind samples =
  ms (Stats.median (List.filter_map (fun s -> if s.kind = kind then Some s.service else None) samples))

let run (a : args) =
  let eco = economy () in
  let rng = Random.State.make [| a.seed |] in
  let drawn = draw rng contradictions eco.pool in
  let start = block_txs eco ~blocks:start_blocks @ drawn in
  let tail =
    List.filteri
      (fun i _ -> i >= List.length (block_txs eco ~blocks:start_blocks))
      (block_txs eco ~blocks:(List.length eco.block_sizes))
  in
  let rbf_pool = List.filter (fun c -> not (List.memq c drawn)) eco.pool in
  let stream = plan eco rng ~start ~tail ~rbf_pool in
  let db = bcdb_of eco.full start in
  let snapshot = Core.Bcdb_file.to_binary_string db in
  let distinct = List.concat_map (fun (_, s, u) -> [ s; u ]) eco.queries in
  let errs = errors () in
  let live, setup =
    setup_first (fun () ->
        let db = Result.get_ok (Core.Bcdb_file.of_binary_string snapshot) in
        let live = Core.Live.create db in
        List.iter
          (fun qy ->
            match Core.Live.check live qy.q with
            | Ok (o, _) when verdict_ok o ~sat:qy.sat -> ()
            | Ok _ -> fail errs "setup %s: wrong verdict" qy.qname
            | Error e -> fail errs "setup %s: %s" qy.qname e)
          distinct;
        live)
  in
  let untraced_seconds = if a.trace then a.seconds /. 2.0 else a.seconds in
  let gc0 = gc_mark () in
  let cache0 = Core.Live.cache_stats live in
  let heap = ref None in
  (* The garbage of a set-up is collected at once, untimed, so that the
     stream's requests do not pay for it. *)
  let between =
    if a.trace then None
    else
      Some
        (fun () ->
          ignore (setup_again setup);
          Gc.full_major ())
  in
  let rounds, rest =
    run_stream ~heap ?between live ~seconds:untraced_seconds ~errs ~verify:true stream
  in
  let samples = List.concat rounds in
  let cache1 = Core.Live.cache_stats live in
  let gc = gc_per_op gc0 ~ops:(List.length samples) in
  let services = Array.of_list (List.map (fun s -> s.service) samples) in
  let is_check = Array.of_list (List.map (fun s -> s.kind = "check") samples) in
  let seqs = gap_sequences ~seed:a.seed (Array.length services) in
  let ops_per_s = ops_per_s (List.map (List.map (fun s -> s.service)) rounds) in
  let n_checks = List.length (List.filter (fun s -> s.kind = "check") samples) in
  let count kind = J.Num (float_of_int (List.length (List.filter (fun s -> s.kind = kind) samples))) in
  let at_rate r =
    J.Obj
      [
        ("rate", J.Num r);
        ("check_p50_ms", J.Num (ms (latency_at ~seqs ~is_check ~rate:r services 50.0)));
        ("check_p95_ms", J.Num (ms (latency_at ~seqs ~is_check ~rate:r services 95.0)));
      ]
  in
  let base =
    {
      attempted = (setups setup * List.length distinct) + List.length samples;
      failed = errs.count;
      metrics = [];
      detail =
        [
          ("setups", J.Num (float_of_int (setups setup)));
          ("offered_rate", J.Num rate);
          ("utilization", J.Num (rate /. ops_per_s));
          ("generator_lateness_ms", J.Num 0.0);
          ("arrival_replays", J.Num (float_of_int replays));
          ("adds", count "add"); ("evicts", count "evict");
          ("confirms", count "confirm"); ("checks", count "check");
          ("check_tail_percentile", J.Num tail_p);
          ("check_tail_samples_beyond", J.Num (float_of_int (Stats.beyond tail_p n_checks)));
          ("rounds", J.Num (float_of_int (List.length rounds)));
          ("latency_at_rates", J.List (List.map at_rate [ 2.5; 5.0; 7.5; 10.0 ]));
          ("stream_exhausted", J.Bool (rest = []));
        ];
      findings = [];
    }
  in
  if not a.trace then
    {
      base with
      detail = base.detail @ [ failures errs ];
      metrics =
        [
          m "setup_s" "s" (setup_s setup);
          m "check_p50_ms" "ms" (ms (latency_at ~seqs ~is_check ~rate services 50.0));
          m "check_tail_ms" "ms" (ms (latency_at ~seqs ~is_check ~rate services tail_p));
          m "naive_p50_ms" "ms"
            (ms (Stats.median (List.filter_map (fun s -> if s.naive then Some s.service else None) samples)));
          m "ops_per_s" "1/s" ops_per_s;
          m "heap_mb" "MB" (match !heap with Some h -> h | None -> heap_mb ~keep:live);
        ];
    }
  else begin
    let obs = Core.Obs.create () in
    Core.Session.set_obs (Core.Live.session live) obs;
    let pb = { tr = solver_trace (); pairs = []; ops = 0; replay_db = None } in
    let traced, _ =
      run_stream ~probe:pb live ~seconds:(a.seconds /. 2.0) ~errs ~verify:false rest
    in
    Core.Session.set_obs (Core.Live.session live) Core.Obs.null;
    (* Dirty checks of different queries differ ~50x in cost, so a median
       over the pairs would sit on the step between two queries; the
       mean weighs each query by its share of the pairs, the same in
       both groups. Per-query medians go to the details. *)
    let pair_ms f = ms (Stats.mean (List.map f pb.pairs)) in
    let by_query =
      List.sort_uniq compare (List.map (fun (n, _, _) -> n) pb.pairs)
      |> List.map (fun name ->
             let mine = List.filter (fun (n, _, _) -> n = name) pb.pairs in
             let med f = J.Num (ms (Stats.median (List.map f mine))) in
             ( name,
               J.Obj
                 [
                   ("pairs", J.Num (float_of_int (List.length mine)));
                   ("dirty_ms", med (fun (_, d, _) -> d));
                   ("clean_ms", med (fun (_, _, c) -> c));
                 ] ))
    in
    let d f = float_of_int (f cache1 - f cache0) in
    let hits = d (fun c -> c.Core.Live.cache_hits) and misses = d (fun c -> c.Core.Live.cache_misses) in
    let layers =
      layer_probes ~snapshot db (List.map (fun qy -> qy.q) distinct)
      @ solver_layers pb.tr ~obs ~db:(Option.value pb.replay_db ~default:db) ~busy_capacity:0.0
      @ [
          m "live.create_ms" "ms" (med_ms (fun () -> ignore (Core.Live.create db)));
          m "live.check_clean_ms" "ms" (pair_ms (fun (_, _, c) -> c));
          m "live.check_dirty_ms" "ms" (pair_ms (fun (_, d, _) -> d));
          m "live.cache_hit_ratio" "ratio" (Stats.ratio hits (hits +. misses));
          m "live.dirty_per_check" "count"
            (Stats.ratio (d (fun c -> c.Core.Live.cache_dirty)) (d (fun c -> c.Core.Live.cache_checks)));
          m "live.add_ms" "ms" (p50_of "add" samples);
          m "live.evict_ms" "ms" (p50_of "evict" samples);
          m "live.confirm_ms" "ms" (p50_of "confirm" samples);
          m "serve.slo_rps" "1/s"
            (Stats.median (List.map (fun gaps -> slo_rate ~gaps ~is_check services) seqs));
        ]
      @ gc
      @ [ paired_overhead live obs ~errs (check_mix eco) ]
    in
    let findings =
      (if hits = 0.0 then [ "the verdict cache never hit on serve-mempool" ] else [])
      @ if pb.pairs = [] then [ "no dirty check on serve-mempool had a clean repeat" ] else []
    in
    {
      attempted =
        base.attempted + List.length (List.concat traced) + pb.ops
        + (10 * List.length (check_mix eco));
      failed = errs.count;
      metrics = complete_per_layer layers;
      detail =
        base.detail
        @ [
            ("traced_naive_requests", J.Num (float_of_int (List.length pb.tr.cliques_per_naive)));
            ("check_pairs", J.Obj by_query);
            failures errs;
          ];
      findings;
    }
  end
