(* Entry point: `main.exe --workload NAME --seed N --seconds S --trace 0|1
   [--commit ID]`. Prints provenance, details and findings, then as its
   last line one JSON object with the keys correct, attempted, failed and
   metrics: the end-to-end metrics with --trace 0, the per-layer ones
   with --trace 1. See README.md in this directory. *)

open Common

let usage () =
  prerr_endline
    "usage: main.exe --workload batch-fig6|dense-enum|serve-mempool --seed N \
     --seconds S --trace 0|1 [--commit ID]";
  exit 2

let parse argv =
  let rec go a = function
    | "--workload" :: v :: rest -> go { a with workload = v } rest
    | "--seed" :: v :: rest -> go { a with seed = int_of_string v } rest
    | "--seconds" :: v :: rest -> go { a with seconds = float_of_string v } rest
    | "--trace" :: ("0" | "1" as v) :: rest -> go { a with trace = v = "1" } rest
    | "--commit" :: v :: rest -> go { a with commit = v } rest
    | [] -> a
    | _ -> usage ()
  in
  try
    go { workload = ""; seed = 0; seconds = 10.0; trace = false; commit = "unknown" } argv
  with Failure _ -> usage ()

let rec json = function
  | J.Null -> "null"
  | J.Bool b -> string_of_bool b
  | J.Num x when not (Float.is_finite x) -> "null"
  | J.Num x when Float.is_integer x && Float.abs x < 1e15 -> Printf.sprintf "%.0f" x
  | J.Num x -> Printf.sprintf "%.17g" x
  | J.Str s -> J.escape s
  | J.List xs -> "[" ^ String.concat ", " (List.map json xs) ^ "]"
  | J.Obj kvs ->
      "{" ^ String.concat ", " (List.map (fun (k, v) -> J.escape k ^ ": " ^ json v) kvs) ^ "}"

let () =
  let a = parse (List.tl (Array.to_list Sys.argv)) in
  let run, jobs =
    match a.workload with
    | "batch-fig6" -> (Batch.run, 1)
    | "dense-enum" -> (Dense.run, min 2 (Domain.recommended_domain_count ()))
    | "serve-mempool" -> (Serve.run, 1)
    | _ -> usage ()
  in
  if a.workload <> "dense-enum" then ensure_inputs ();
  print_endline
    (json
       (J.Obj
          [
            ( "provenance",
              J.Obj
                [
                  ("commit", J.Str a.commit);
                  ("nproc", J.Num (float_of_int (Domain.recommended_domain_count ())));
                  ("ocaml", J.Str Sys.ocaml_version);
                  ("workload", J.Str a.workload);
                  ("seed", J.Num (float_of_int a.seed));
                  ("jobs", J.Num (float_of_int jobs));
                  ("seconds", J.Num a.seconds);
                  ("trace", J.Bool a.trace);
                ] );
          ]));
  let r = run a in
  (* End-to-end metrics are bounded as shares of their median, so a zero
     or non-finite one means the run did not measure what it claims. *)
  let unmeasured =
    if a.trace then []
    else List.filter (fun x -> not (Float.is_finite x.value && x.value > 0.0)) r.metrics
  in
  let error_rate = Stats.ratio (float_of_int r.failed) (float_of_int r.attempted) in
  print_endline
    (json
       (J.Obj
          [
            ("detail", J.Obj (("error_rate", J.Num error_rate) :: r.detail));
            ("findings", J.List (List.map (fun f -> J.Str f) r.findings));
            ("unmeasured", J.List (List.map (fun x -> J.Str x.name) unmeasured));
          ]));
  List.iter (fun x -> Printf.printf "%-28s %14.6f %s\n" x.name x.value x.unit_) r.metrics;
  print_endline
    (json
       (J.Obj
          [
            ("correct", J.Bool (r.failed = 0 && unmeasured = []));
            ("attempted", J.Num (float_of_int r.attempted));
            ("failed", J.Num (float_of_int r.failed));
            ( "metrics",
              J.Obj
                (List.map
                   (fun x -> (x.name, J.Obj [ ("value", J.Num x.value); ("unit", J.Str x.unit_) ]))
                   r.metrics) );
          ]))
