(* Engine robustness: cooperative budgets (deadline / max-worlds /
   max-pulled) surfacing as three-valued verdicts, the clique
   generator's interrupt hook, and exception safety of both backends —
   a raising eval must propagate to the caller, release every borrowed
   replica, and leave the helper-domain pool reusable. *)

module Core = Bccore
module Engine = Core.Engine

(* CI runs the suite once with BCDB_TEST_JOBS=1 and once with
   BCDB_TEST_JOBS=4, exercising the same assertions against the
   sequential and parallel backends. *)
let par_jobs =
  match Sys.getenv_opt "BCDB_TEST_JOBS" with
  | Some s -> (try max 1 (int_of_string s) with _ -> 4)
  | None -> 4

(* --- Budget unit tests --- *)

let test_budget_create () =
  Alcotest.(check bool) "unlimited is unlimited" true
    (Engine.Budget.is_unlimited Engine.Budget.unlimited);
  Alcotest.(check bool) "bounded is not" false
    (Engine.Budget.is_unlimited (Engine.Budget.create ~max_worlds:5 ()));
  let create = Engine.Budget.create in
  List.iter
    (fun (what, make) ->
      Alcotest.check_raises what
        (Invalid_argument ("Engine.Budget.create: " ^ what))
        (fun () -> ignore (make ())))
    [
      ("negative timeout", fun () -> create ~timeout_s:(-1.0) ());
      ("NaN timeout", fun () -> create ~timeout_s:Float.nan ());
      ("negative max_worlds", fun () -> create ~max_worlds:(-1) ());
      ("negative max_pulled", fun () -> create ~max_pulled:(-1) ());
    ]

let test_budget_trips_sticky () =
  let b = Engine.Budget.create ~max_worlds:3 ~max_pulled:2 () in
  Alcotest.(check bool) "under both limits" true
    (Engine.Budget.check b ~pulled:1 ~evaluated:1 = None);
  (* max_pulled trips first here; the reason then sticks even when a
     later check would also exceed max_worlds. *)
  Alcotest.(check bool) "max_pulled trips" true
    (Engine.Budget.check b ~pulled:2 ~evaluated:1
    = Some Engine.Budget.Max_pulled);
  Alcotest.(check bool) "first reason sticks" true
    (Engine.Budget.check b ~pulled:9 ~evaluated:9
    = Some Engine.Budget.Max_pulled);
  Alcotest.(check bool) "tripped agrees" true
    (Engine.Budget.tripped b = Some Engine.Budget.Max_pulled)

let test_budget_deadline_interrupt () =
  let b = Engine.Budget.create ~timeout_s:0.0 () in
  (* The absolute deadline is already behind us. *)
  Alcotest.(check bool) "interrupt fires" true (Engine.Budget.interrupt b ());
  Alcotest.(check bool) "deadline recorded" true
    (Engine.Budget.tripped b = Some Engine.Budget.Deadline);
  let unlimited = Engine.Budget.unlimited in
  Alcotest.(check bool) "unlimited never fires" false
    (Engine.Budget.interrupt unlimited ())

(* --- generator interrupt hook --- *)

let diamond () =
  (* Two triangles sharing an edge: cliques {0,1,2} and {1,2,3}. *)
  let g = Bcgraph.Undirected.create 4 in
  List.iter
    (fun (i, j) -> Bcgraph.Undirected.add_edge g i j)
    [ (0, 1); (0, 2); (1, 2); (1, 3); (2, 3) ];
  g

let test_generator_interrupt () =
  let next = Bcgraph.Bron_kerbosch.generator ~interrupt:(fun () -> true) (diamond ()) in
  Alcotest.(check bool) "immediately exhausted" true (next () = None);
  let full = Bcgraph.Bron_kerbosch.generator ~interrupt:(fun () -> false) (diamond ()) in
  let count = ref 0 in
  let rec drain () =
    match full () with Some _ -> incr count; drain () | None -> () in
  drain ();
  Alcotest.(check int) "false interrupt enumerates all" 2 !count;
  (* Fire after the first yield: the generator must answer None from
     then on, even though a second clique exists. *)
  let fired = ref false in
  let partial =
    Bcgraph.Bron_kerbosch.generator ~interrupt:(fun () -> !fired) (diamond ())
  in
  Alcotest.(check bool) "first clique yields" true (partial () <> None);
  fired := true;
  Alcotest.(check bool) "then permanently None" true (partial () = None);
  Alcotest.(check bool) "still None" true (partial () = None)

(* --- budgeted solver runs: three-valued verdicts --- *)

let is_unknown (o : Core.Dcsat.outcome) =
  match o.Core.Dcsat.verdict with
  | Core.Dcsat.Unknown _ -> true
  | Core.Dcsat.Satisfied | Core.Dcsat.Violated _ -> false

let test_unknown_on_max_worlds jobs () =
  let session = Core.Session.create (Fixtures.paper_db ()) in
  let budget = Engine.Budget.create ~max_worlds:0 () in
  match Core.Dcsat.opt ~jobs ~budget session Fixtures.qs_u8 with
  | Error r -> Alcotest.failf "refused: %a" Core.Dcsat.pp_refusal r
  | Ok o ->
      Alcotest.(check bool) "verdict unknown" true (is_unknown o);
      Alcotest.(check bool) "not claimed satisfied" false o.Core.Dcsat.satisfied;
      Alcotest.(check bool) "no witness" true (o.Core.Dcsat.witness_world = None)

let test_unknown_on_deadline jobs () =
  let session = Core.Session.create (Fixtures.paper_db ()) in
  (* qs_u8 is true over R ∪ T, so the pre-check cannot decide and the
     enumeration must start — where the already-expired deadline trips
     at the first claim. *)
  let budget = Engine.Budget.create ~timeout_s:0.0 () in
  match Core.Dcsat.naive ~jobs ~budget session Fixtures.qs_u8 with
  | Error r -> Alcotest.failf "refused: %a" Core.Dcsat.pp_refusal r
  | Ok o -> (
      match o.Core.Dcsat.verdict with
      | Core.Dcsat.Unknown Engine.Budget.Deadline -> ()
      | v ->
          Alcotest.failf "expected Unknown deadline, got %s"
            (Core.Dcsat.verdict_name v))

let test_generous_budget_matches_unbudgeted jobs () =
  let session = Core.Session.create (Fixtures.paper_db ()) in
  let solve budget = Core.Dcsat.opt ~jobs ?budget session Fixtures.qs_u8 in
  match (solve None, solve (Some (Engine.Budget.create ~max_worlds:1_000 ()))) with
  | Ok a, Ok b ->
      Alcotest.(check bool) "same satisfied" a.Core.Dcsat.satisfied
        b.Core.Dcsat.satisfied;
      Alcotest.(check (option (list int)))
        "same witness world" a.Core.Dcsat.witness_world
        b.Core.Dcsat.witness_world;
      Alcotest.(check bool) "untripped budget is not Unknown" false
        (is_unknown b)
  | _ -> Alcotest.fail "solver refused the paper query"

(* A violation found within the budget must be reported as Violated
   even though the budget would have tripped soon after: the
   counterexample is sound regardless of the unexplored suffix. *)
let test_violation_beats_exhaustion jobs () =
  let session = Core.Session.create (Fixtures.paper_db ()) in
  let budget = Engine.Budget.create ~max_worlds:1 () in
  match Core.Dcsat.opt ~jobs ~budget session Fixtures.qs_u8 with
  | Error r -> Alcotest.failf "refused: %a" Core.Dcsat.pp_refusal r
  | Ok o -> (
      (* The paper instance violates qs_u8 in the very first evaluated
         world, so even a one-world budget finds it. *)
      match o.Core.Dcsat.verdict with
      | Core.Dcsat.Violated _ -> ()
      | v ->
          Alcotest.failf "expected Violated, got %s"
            (Core.Dcsat.verdict_name v))

(* --- exception safety --- *)

exception Boom

let run_with_failing_eval ~jobs ~store ~replicate ~release items ~fail_on =
  Engine.run ~jobs ~store ~replicate ~release
    ~source:(Engine.Work_source.of_list items)
    ~eval:(fun () _store members ->
      if members = fail_on then raise Boom
      else { Engine.world = members; violation = None })
    ~on_item:ignore ~on_evaluated:ignore ()

let test_eval_raise_propagates jobs () =
  let store = Core.Tagged_store.create (Fixtures.paper_db ()) in
  let borrowed = ref 0 and released = ref 0 in
  let replicate () =
    incr borrowed;
    Core.Tagged_store.clone store
  in
  let release _ = incr released in
  let items = [ [ 0 ]; [ 1 ]; [ 2 ]; [ 3 ]; [ 4 ] ] in
  (match
     run_with_failing_eval ~jobs ~store ~replicate ~release items
       ~fail_on:[ 2 ]
   with
  | (_ : Engine.report) -> Alcotest.fail "expected the eval's exception"
  | exception Boom -> ());
  Alcotest.(check int) "every borrowed replica released" !borrowed !released;
  (* The engine (and its helper-domain pool) must stay usable: a clean
     run right after the failed one completes with full counts. *)
  let report =
    Engine.run ~jobs ~store ~replicate ~release
      ~source:(Engine.Work_source.of_list items)
      ~eval:(fun () _store members -> { Engine.world = members; violation = None })
      ~on_item:ignore ~on_evaluated:ignore ()
  in
  Alcotest.(check int) "clean rerun evaluates everything" 5
    report.Engine.evaluated;
  Alcotest.(check bool) "no violation" true (report.Engine.hit = None);
  Alcotest.(check bool) "no exhaustion" true (report.Engine.exhausted = None);
  Alcotest.(check int) "rerun replicas also released" !borrowed !released

let test_replicate_raise_propagates jobs () =
  (* Failures in replicate (not just eval) must unwind the same way. *)
  let store = Core.Tagged_store.create (Fixtures.paper_db ()) in
  let released = ref 0 in
  let replicate () = raise Boom in
  let release _ = incr released in
  if jobs <= 1 then begin
    (* The sequential backend evaluates on the primary store and never
       replicates, so a poisoned replicate is simply unused. *)
    let report =
      run_with_failing_eval ~jobs ~store ~replicate ~release
        [ [ 0 ]; [ 1 ] ]
        ~fail_on:[ 99 ]
    in
    Alcotest.(check int) "sequential run unaffected" 2 report.Engine.evaluated
  end
  else begin
    (match
       run_with_failing_eval ~jobs ~store ~replicate ~release
         [ [ 0 ]; [ 1 ] ]
         ~fail_on:[ 99 ]
     with
    | (_ : Engine.report) -> Alcotest.fail "expected replicate's exception"
    | exception Boom -> ());
    Alcotest.(check int) "nothing to release" 0 !released
  end

let jobs_cases name mk =
  [
    Alcotest.test_case (name ^ " (jobs=1)") `Quick (mk 1);
    Alcotest.test_case
      (Printf.sprintf "%s (jobs=%d)" name par_jobs)
      `Quick (mk par_jobs);
  ]

let () =
  Alcotest.run "engine"
    [
      ( "budget",
        [
          Alcotest.test_case "create/unlimited" `Quick test_budget_create;
          Alcotest.test_case "sticky trip" `Quick test_budget_trips_sticky;
          Alcotest.test_case "deadline interrupt" `Quick
            test_budget_deadline_interrupt;
        ] );
      ( "generator",
        [ Alcotest.test_case "interrupt hook" `Quick test_generator_interrupt ]
      );
      ( "verdicts",
        jobs_cases "unknown on max-worlds" test_unknown_on_max_worlds
        @ jobs_cases "unknown on expired deadline" test_unknown_on_deadline
        @ jobs_cases "generous budget matches unbudgeted"
            test_generous_budget_matches_unbudgeted
        @ jobs_cases "violation beats exhaustion"
            test_violation_beats_exhaustion );
      ( "exceptions",
        jobs_cases "eval raise propagates" test_eval_raise_propagates
        @ jobs_cases "replicate raise propagates"
            test_replicate_raise_propagates );
    ]
