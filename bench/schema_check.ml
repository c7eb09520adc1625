(* Validate a bench results document against the Obs.Results schema.

     dune exec bench/schema_check.exe -- bench_smoke.json
     dune exec bench/schema_check.exe -- --expect-no-work E4 bench_smoke.json
     dune exec bench/schema_check.exe -- --expect-par PAR par_smoke.json

   Exits non-zero (with a diagnostic) on parse or schema errors, so the
   @smoke alias fails loudly when the emitter regresses.

   --expect-no-work SECTION (repeatable) additionally asserts that the
   named section's metrics carry no counter deltas — the guard that the
   per-section Metrics scoping in bench/report.ml really is per-section:
   a cumulative implementation would leak earlier sections' simulator and
   solver counters into a pure-math section like E4.

   --expect-store asserts the document carries the top-level
   "store" object and that its counters prove the run really exercised
   the out-of-core path: spilled_entries > 0 and evictions > 0. This is
   the teeth of the CI spill gate — a budget generous enough to keep
   everything resident would produce a vacuously-passing gate without it.

   --expect-par SECTION (repeatable) asserts the named section carries the
   schema-v3/v4 parallel telemetry: an integer "spawned_domains" >= 1, a
   non-empty "domain_ids" integer list, and a "par_solve" object with at
   least one per-domain entry, an integer "distinct_keys" and the v4
   work-stealing counters (steals, claim_hits, claim_misses,
   pruned_subtrees) — the guard that a multi-job bench run actually
   published who ran and what each domain's memo table did. *)

let () =
  let expect_no_work = ref []
  and expect_par = ref []
  and expect_store = ref false
  and path = ref None in
  let usage () =
    Fmt.epr
      "usage: schema_check.exe [--expect-no-work SECTION] [--expect-par \
       SECTION] [--expect-store] FILE.json@.";
    exit 2
  in
  let rec parse = function
    | [] -> ()
    | "--expect-no-work" :: id :: rest ->
        expect_no_work := String.uppercase_ascii id :: !expect_no_work;
        parse rest
    | "--expect-par" :: id :: rest ->
        expect_par := String.uppercase_ascii id :: !expect_par;
        parse rest
    | "--expect-store" :: rest ->
        expect_store := true;
        parse rest
    | arg :: rest when !path = None && String.length arg > 0 && arg.[0] <> '-' ->
        path := Some arg;
        parse rest
    | arg :: _ ->
        Fmt.epr "unknown argument %s@." arg;
        usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let path = match !path with Some p -> p | None -> usage () in
  let contents =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  match Obs.Json.of_string contents with
  | Error e ->
      Fmt.epr "%s: JSON parse error: %s@." path e;
      exit 1
  | Ok json -> (
      match Obs.Results.validate json with
      | Error e ->
          Fmt.epr "%s: schema error: %s@." path e;
          exit 1
      | Ok () ->
          let sections =
            match Obs.Json.member "experiments" json with
            | Some (Obs.Json.List l) -> l
            | _ -> []
          in
          let section_id s =
            match Obs.Json.member "id" s with
            | Some (Obs.Json.String id) -> String.uppercase_ascii id
            | _ -> ""
          in
          List.iter
            (fun id ->
              match List.find_opt (fun s -> section_id s = id) sections with
              | None ->
                  Fmt.epr "%s: --expect-no-work %s: no such section@." path id;
                  exit 1
              | Some s -> (
                  let counters =
                    match Obs.Json.member "metrics" s with
                    | Some m -> Obs.Json.member "counters" m
                    | None -> None
                  in
                  match counters with
                  | None | Some (Obs.Json.Obj []) -> ()
                  | Some c ->
                      Fmt.epr
                        "%s: section %s expected no counter deltas but has %a — \
                         per-section metric scoping leaked earlier work@."
                        path id Obs.Json.pp c;
                      exit 1))
            !expect_no_work;
          List.iter
            (fun id ->
              match List.find_opt (fun s -> section_id s = id) sections with
              | None ->
                  Fmt.epr "%s: --expect-par %s: no such section@." path id;
                  exit 1
              | Some s ->
                  let fail fmt =
                    Fmt.kstr
                      (fun msg ->
                        Fmt.epr "%s: section %s: %s@." path id msg;
                        exit 1)
                      fmt
                  in
                  let metric name =
                    Option.bind (Obs.Json.member "metrics" s)
                      (Obs.Json.member name)
                  in
                  (match metric "spawned_domains" with
                  | Some (Obs.Json.Int n) when n >= 1 -> ()
                  | _ -> fail "expected integer spawned_domains >= 1");
                  (match metric "domain_ids" with
                  | Some (Obs.Json.List (_ :: _ as ids))
                    when List.for_all
                           (function Obs.Json.Int _ -> true | _ -> false)
                           ids ->
                      ()
                  | _ -> fail "expected non-empty integer list domain_ids");
                  (match metric "par_solve" with
                  | Some (Obs.Json.Obj _ as ps) ->
                      (match Obs.Json.member "domains" ps with
                      | Some (Obs.Json.List (_ :: _)) -> ()
                      | _ -> fail "par_solve.domains must be a non-empty list");
                      List.iter
                        (fun key ->
                          match Obs.Json.member key ps with
                          | Some (Obs.Json.Int n) when n >= 0 -> ()
                          | _ -> fail "par_solve lacks integer %s" key)
                        [ "distinct_keys"; "steals"; "claim_hits";
                          "claim_misses"; "pruned_subtrees" ]
                  | _ -> fail "expected par_solve object"))
            !expect_par;
          (if !expect_store then
             let fail fmt =
               Fmt.kstr
                 (fun msg ->
                   Fmt.epr "%s: --expect-store: %s@." path msg;
                   exit 1)
                 fmt
             in
             match Obs.Json.member "store" json with
             | None ->
                 fail
                   "document has no top-level \"store\" block — no budgeted \
                    solve ran"
             | Some st ->
                 let counter name =
                   match
                     Option.bind (Obs.Json.member name st) Obs.Json.to_int_opt
                   with
                   | Some n -> n
                   | None -> fail "store.%s missing or not an integer" name
                 in
                 let spilled = counter "spilled_entries"
                 and evictions = counter "evictions" in
                 if spilled <= 0 then
                   fail
                     "spilled_entries = %d — the budget never forced a spill, \
                      the gate is vacuous"
                     spilled;
                 if evictions <= 0 then
                   fail
                     "evictions = %d — the block cache never evicted, the \
                      budget is too generous for a spill gate"
                     evictions);
          Fmt.pr "%s: ok (schema v%d, %d experiment sections)@." path
            Obs.Results.schema_version
            (List.length sections))
