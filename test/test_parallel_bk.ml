(* Work-stealing Bron–Kerbosch: the Par pool must enumerate exactly the
   sequential search tree — same clique set from any worker count, DFS
   order from one worker, paths that index into the sequential order —
   plus units for the two graph-layer helpers it rests on
   (Bitset.max_inter, Undirected.degeneracy_order). *)

module G = Bcgraph
module R = Relational
module V = R.Value
module Q = Bcquery
module Core = Bccore

let random_graph n edges =
  let g = G.Undirected.create n in
  List.iter
    (fun (i, j) -> if i < n && j < n && i <> j then G.Undirected.add_edge g i j)
    edges;
  g

let graph_arb =
  QCheck.(
    pair (int_range 1 10)
      (list_of_size (QCheck.Gen.int_bound 30) (pair (int_bound 9) (int_bound 9))))

(* Drive the pool with [workers] domains (worker 0 is the caller), each
   draining until exhaustion. *)
let par_claims ~workers g =
  let pool = G.Bron_kerbosch.Par.create ~workers g in
  let results = Array.make workers [] in
  let run w =
    let rec go acc =
      match G.Bron_kerbosch.Par.next pool ~worker:w with
      | Some claim -> go (claim :: acc)
      | None -> List.rev acc
    in
    results.(w) <- go []
  in
  let doms =
    List.init (workers - 1) (fun k -> Domain.spawn (fun () -> run (k + 1)))
  in
  run 0;
  List.iter Domain.join doms;
  (pool, Array.to_list results |> List.concat)

(* --- Bitset.max_inter ------------------------------------------------ *)

let max_inter_matches_naive =
  QCheck.Test.make ~name:"max_inter = naive argmax over inter_cardinal"
    ~count:200
    QCheck.(
      triple
        (list_of_size (QCheck.Gen.int_bound 12) (int_bound 19))
        (list_of_size (QCheck.Gen.int_bound 12) (int_bound 19))
        (array_of_size (QCheck.Gen.return 20)
           (list_of_size (QCheck.Gen.int_bound 8) (int_bound 19))))
    (fun (cand, target, rows_members) ->
      let cand = G.Bitset.of_list 20 cand
      and target = G.Bitset.of_list 20 target in
      let rows = Array.map (G.Bitset.of_list 20) rows_members in
      let naive =
        List.fold_left
          (fun (bu, bs) u ->
            let s = G.Bitset.inter_cardinal rows.(u) target in
            if s > bs then (u, s) else (bu, bs))
          (-1, -1)
          (G.Bitset.to_list cand)
      in
      G.Bitset.max_inter ~rows cand target = naive)

(* --- Undirected.degeneracy_order ------------------------------------ *)

let degeneracy_is_greedy_min_peel =
  QCheck.Test.make ~name:"degeneracy_order = greedy min-degree peel"
    ~count:100 graph_arb (fun (n, edges) ->
      let g = random_graph n edges in
      let order = G.Undirected.degeneracy_order g in
      (* a permutation of 0..n-1 *)
      List.sort compare (Array.to_list order) = List.init n Fun.id
      &&
      (* each removed node has minimum remaining degree, smallest id on
         ties, against a naive simulation *)
      let removed = Array.make n false in
      let live_degree v =
        List.length
          (List.filter (fun u -> not removed.(u)) (G.Undirected.neighbours g v))
      in
      Array.for_all
        (fun v ->
          let dv = live_degree v in
          let ok =
            List.for_all
              (fun u ->
                removed.(u) || u = v
                ||
                let du = live_degree u in
                du > dv || (du = dv && u > v))
              (List.init n Fun.id)
          in
          removed.(v) <- true;
          ok)
        order)

(* --- Par pool -------------------------------------------------------- *)

let one_worker_is_sequential =
  QCheck.Test.make ~name:"Par workers:1 = sequential generator, same order"
    ~count:100 graph_arb (fun (n, edges) ->
      let g = random_graph n edges in
      let seq = G.Bron_kerbosch.maximal_cliques g in
      let _, claims = par_claims ~workers:1 g in
      List.map snd claims = seq
      &&
      (* paths come out strictly increasing — DFS order *)
      let rec ascending = function
        | (p1, _) :: ((p2, _) :: _ as rest) ->
            G.Bron_kerbosch.path_compare p1 p2 < 0 && ascending rest
        | _ -> true
      in
      ascending claims)

let par_matches_sequential_set =
  QCheck.Test.make ~name:"Par workers:4 clique set = sequential" ~count:100
    graph_arb (fun (n, edges) ->
      let g = random_graph n edges in
      let seq = List.sort compare (G.Bron_kerbosch.maximal_cliques g) in
      let pool, claims = par_claims ~workers:4 g in
      ignore (G.Bron_kerbosch.Par.steals pool);
      List.sort compare (List.map snd claims) = seq)

let count_upto_is_position =
  QCheck.Test.make ~name:"count_upto path_k = k+1" ~count:100 graph_arb
    (fun (n, edges) ->
      let g = random_graph n edges in
      let _, claims = par_claims ~workers:1 g in
      List.for_all2
        (fun (path, _) k -> G.Bron_kerbosch.count_upto g path = k + 1)
        claims
        (List.init (List.length claims) Fun.id))

let prune_cuts_exactly_after_target =
  QCheck.Test.make ~name:"prune before start claims exactly the prefix"
    ~count:100
    QCheck.(pair graph_arb small_nat)
    (fun ((n, edges), pick) ->
      let g = random_graph n edges in
      let _, all = par_claims ~workers:1 g in
      QCheck.assume (all <> []);
      let target, _ = List.nth all (pick mod List.length all) in
      let pool = G.Bron_kerbosch.Par.create ~workers:3 g in
      G.Bron_kerbosch.Par.prune pool target;
      let results = Array.make 3 [] in
      let run w =
        let rec go acc =
          match G.Bron_kerbosch.Par.next pool ~worker:w with
          | Some claim -> go (claim :: acc)
          | None -> acc
        in
        results.(w) <- go []
      in
      let doms = List.init 2 (fun k -> Domain.spawn (fun () -> run (k + 1))) in
      run 0;
      List.iter Domain.join doms;
      let claimed =
        Array.to_list results |> List.concat |> List.map snd
        |> List.sort compare
      in
      let expected =
        List.filter
          (fun (p, _) -> G.Bron_kerbosch.path_compare p target <= 0)
          all
        |> List.map snd |> List.sort compare
      in
      claimed = expected)

let interrupt_stops_pool () =
  (* a pre-fired interrupt produces no cliques at all *)
  let g = random_graph 8 [ (0, 1); (1, 2); (0, 2); (3, 4); (5, 6) ] in
  let pool =
    G.Bron_kerbosch.Par.create ~interrupt:(fun () -> true) ~workers:2 g
  in
  Alcotest.(check bool)
    "worker 0 sees None" true
    (G.Bron_kerbosch.Par.next pool ~worker:0 = None);
  Alcotest.(check bool)
    "worker 1 sees None" true
    (G.Bron_kerbosch.Par.next pool ~worker:1 = None)

let subtree_counter () =
  let g = random_graph 6 [ (0, 1); (2, 3) ] in
  let pool, claims = par_claims ~workers:2 g in
  Alcotest.(check int) "six cliques minus merged pairs" 4 (List.length claims);
  Alcotest.(check int) "all roots claimed" 6 (G.Bron_kerbosch.Par.subtrees pool)

let steal_drains_abandoned_deques () =
  (* Three workers each claim exactly one clique and walk away, leaving
     frames parked in their deques; the last worker must steal those
     frames to terminate. Regression: a steal used to double-count the
     frame's live token, so the termination test never fired and the
     survivor spun forever. *)
  let n = 12 in
  let g = G.Undirected.create n in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if u / 2 <> v / 2 then G.Undirected.add_edge g u v
    done
  done;
  (* K_{2x6}: 2^6 = 64 maximal cliques *)
  let expected = G.Bron_kerbosch.maximal_cliques g in
  let pool = G.Bron_kerbosch.Par.create ~workers:4 g in
  let one w () =
    match G.Bron_kerbosch.Par.next pool ~worker:w with
    | Some (_, c) -> [ c ]
    | None -> []
  in
  let early =
    List.init 3 (fun i -> Domain.spawn (one (i + 1)))
    |> List.map Domain.join |> List.concat
  in
  let rest = ref [] in
  let rec drain () =
    match G.Bron_kerbosch.Par.next pool ~worker:0 with
    | Some (_, c) ->
        rest := c :: !rest;
        drain ()
    | None -> ()
  in
  drain ();
  let got = List.sort compare (early @ !rest) in
  Alcotest.(check int) "64 cliques" 64 (List.length got);
  Alcotest.(check bool)
    "set matches sequential" true
    (got = List.sort compare expected);
  Alcotest.(check bool)
    "steals happened" true
    (G.Bron_kerbosch.Par.steals pool > 0)

(* --- solver-level differential: steal backend vs claim-lock --------- *)

let acct = R.Schema.relation "Acct" [ "id"; "val" ]
let cat = R.Schema.of_list [ acct ]
let acct_row id v = ("Acct", R.Tuple.make [ V.Int id; V.Str v ])

(* Random instances with heavy key conflicts: many pending writers of
   few distinct ids makes the fd graph dense — exactly the regime the
   steal backend targets. At least 32 pending transactions, so NaiveDCSat
   at jobs > 1 picks the stealing backend. *)
let random_db rng =
  let state = R.Database.create cat in
  R.Database.insert_all state [ acct_row 9 "a" ];
  let k = 32 + Random.State.int rng 9 in
  let random_tx () =
    let rows = 1 + Random.State.int rng 2 in
    List.init rows (fun _ ->
        acct_row
          (Random.State.int rng 4)
          (if Random.State.bool rng then "a" else "b"))
  in
  Core.Bcdb.create_exn ~state
    ~constraints:[ R.Constr.key acct [ "id" ] ]
    ~pending:(List.init k (fun _ -> random_tx ()))
    ()

let queries =
  [
    {| q() :- Acct(x, "a"), Acct(x, "b"). |};
    {| q() :- Acct(0, v). |};
    {| q() :- Acct(x, "a"), Acct(y, "b"), x != y. |};
  ]

(* Everything observable except runtime must coincide: the steal
   backend's path-minimum winner is the sequential first violation, and
   violated-run counts are recovered by the count_upto walk. *)
let same_outcome (a : Core.Dcsat.outcome) (b : Core.Dcsat.outcome) =
  let sa = a.Core.Dcsat.stats and sb = b.Core.Dcsat.stats in
  a.Core.Dcsat.satisfied = b.Core.Dcsat.satisfied
  && a.Core.Dcsat.witness_world = b.Core.Dcsat.witness_world
  && a.Core.Dcsat.witness = b.Core.Dcsat.witness
  && a.Core.Dcsat.verdict = b.Core.Dcsat.verdict
  && sa.Core.Dcsat.worlds_checked = sb.Core.Dcsat.worlds_checked
  && sa.Core.Dcsat.cliques_enumerated = sb.Core.Dcsat.cliques_enumerated
  && sa.Core.Dcsat.components_total = sb.Core.Dcsat.components_total
  && sa.Core.Dcsat.components_covered = sb.Core.Dcsat.components_covered
  && sa.Core.Dcsat.precheck_decided = sb.Core.Dcsat.precheck_decided

(* Root subtrees the stealing backend claimed while [f] ran on a session
   recording into [obs]: 0 means the claim-lock pipeline ran instead. *)
let subtrees_during obs f =
  let before = Core.Obs.counter obs "bk.subtree" in
  let r = f () in
  (r, Core.Obs.counter obs "bk.subtree" - before)

(* jobs 1 is the claim-lock reference; jobs 4 on >= 32 nodes steals. *)
let steal_matches_claim_lock =
  QCheck.Test.make
    ~name:"naive/opt: steal backend = claim-lock (verdict/witness/stats)"
    ~count:60
    QCheck.(pair (int_bound 100_000) (int_bound (List.length queries - 1)))
    (fun (seed, qi) ->
      let rng = Random.State.make [| seed |] in
      let db = random_db rng in
      let obs = Core.Obs.create () in
      let session = Core.Session.create ~obs db in
      let q = Q.Parser.parse_exn ~catalog:cat (List.nth queries qi) in
      (* no precheck: force the enumeration on every instance *)
      let naive ~jobs =
        match Core.Dcsat.naive ~use_precheck:false ~jobs session q with
        | Ok o -> o
        | Error _ -> QCheck.assume_fail ()
      in
      let baseline = naive ~jobs:1 in
      let stolen, subtrees = subtrees_during obs (fun () -> naive ~jobs:4) in
      if subtrees = 0 then
        QCheck.Test.fail_report "jobs 4 on >= 32 txs did not steal";
      let opt_ok =
        match Core.Dcsat.opt ~use_precheck:false ~jobs:1 session q with
        | Error _ -> true (* disconnected: Naive covers it *)
        | Ok base -> (
            match Core.Dcsat.opt ~use_precheck:false ~jobs:4 session q with
            | Ok o -> same_outcome base o
            | Error _ -> false)
      in
      same_outcome baseline stolen && opt_ok)

(* A tripped budget must surface as Unknown and leave the session
   reusable: borrowed replicas handed back, a follow-up unbudgeted solve
   on the same session gives the exact answer. *)
let budget_trips_to_unknown () =
  let state = R.Database.create cat in
  let pending =
    (* 40 writers of 5 ids, 4 per (id, value): 2^5 maximal worlds, all
       satisfied, over enough nodes for jobs 4 to steal *)
    List.init 40 (fun j ->
        [ acct_row (j mod 5) (if j / 5 mod 2 = 0 then "a" else "b") ])
  in
  let db =
    Core.Bcdb.create_exn ~state
      ~constraints:[ R.Constr.key acct [ "id" ] ]
      ~pending ()
  in
  let obs = Core.Obs.create () in
  let session = Core.Session.create ~obs db in
  let q =
    Q.Parser.parse_exn ~catalog:cat {| q() :- Acct(x, "a"), Acct(x, "b"). |}
  in
  for _ = 1 to 2 do
    let budget = Core.Engine.Budget.create ~max_worlds:4 () in
    (match
       Core.Dcsat.naive ~use_precheck:false ~jobs:4 ~budget session q
     with
    | Ok o -> (
        match o.Core.Dcsat.verdict with
        | Core.Dcsat.Unknown _ -> ()
        | v -> Alcotest.failf "expected Unknown, got %s" (Core.Dcsat.verdict_name v))
    | Error _ -> Alcotest.fail "refused");
    match
      subtrees_during obs (fun () ->
          Core.Dcsat.naive ~use_precheck:false ~jobs:4 session q)
    with
    | Ok o, subtrees ->
        Alcotest.(check bool)
          "full solve after trip is exact" true o.Core.Dcsat.satisfied;
        Alcotest.(check bool) "the solve stole" true (subtrees > 0)
    | Error _, _ -> Alcotest.fail "refused"
  done

let () =
  Alcotest.run "parallel_bk"
    [
      ( "helpers",
        [
          QCheck_alcotest.to_alcotest max_inter_matches_naive;
          QCheck_alcotest.to_alcotest degeneracy_is_greedy_min_peel;
        ] );
      ( "pool",
        [
          QCheck_alcotest.to_alcotest one_worker_is_sequential;
          QCheck_alcotest.to_alcotest par_matches_sequential_set;
          QCheck_alcotest.to_alcotest count_upto_is_position;
          QCheck_alcotest.to_alcotest prune_cuts_exactly_after_target;
          Alcotest.test_case "interrupt" `Quick interrupt_stops_pool;
          Alcotest.test_case "subtree counter" `Quick subtree_counter;
          Alcotest.test_case "steal drains abandoned deques" `Quick
            steal_drains_abandoned_deques;
        ] );
      ( "solver",
        [
          QCheck_alcotest.to_alcotest steal_matches_claim_lock;
          Alcotest.test_case "budget trips to Unknown" `Quick
            budget_trips_to_unknown;
        ] );
    ]
