(* Dual-output experiment reporting.

   Every E-section renders the familiar aligned stdout table AND
   accumulates structured rows in the process-wide Obs.Results document,
   which `main.exe --json PATH` writes at the end of the run. Rows added
   with [row] appear in both; [table_row] is for grid-shaped tables whose
   cells are not (quantity, paper, measured) comparisons — those sections
   publish their machine-readable content via [metrics] instead.

   [section] additionally snapshots the process-wide counter registry and
   the domain's allocated minor words, and [finish] lands the deltas in
   the section's metrics — so a section's "counters"/"gc" objects
   describe that section's work, not cumulative totals since process
   start. [Gc.minor_words] is exact (it counts the live minor-heap
   pointer), unlike [Gc.quick_stat]'s [minor_words], which advances only
   at a minor collection. *)

open Util

let doc = Obs.Results.create ~generated_by:"blunting bench harness" ()

type t = {
  table : Table.t;
  section : Obs.Results.section;
  counters0 : (string * int) list;
  minor_words0 : float;
}

let section ?(headers = [ "quantity"; "paper"; "measured" ]) ~id ~title () =
  Fmt.pr "@.=== %s  %s@.@." id title;
  {
    table = Table.create headers;
    section = Obs.Results.section doc ~id ~title;
    counters0 = Obs.Metrics.counters ();
    minor_words0 = Gc.minor_words ();
  }

(* A comparison row: stdout table + JSON. *)
let row t ?paper_value ?measured_value ~quantity ~paper ~measured () =
  Table.add_row t.table [ quantity; paper; measured ];
  Obs.Results.row t.section ?paper_value ?measured_value ~quantity ~paper ~measured ()

(* A JSON-only comparison row (for grids whose stdout shape differs). *)
let json_row t ?paper_value ?measured_value ~quantity ~paper ~measured () =
  Obs.Results.row t.section ?paper_value ?measured_value ~quantity ~paper ~measured ()

(* A stdout-only table row. *)
let table_row t cells = Table.add_row t.table cells

(* Free-form machine-readable section payload (solver stats, counts...). *)
let metrics t kvs = Obs.Results.add_section_metrics t.section kvs

let solver_stats_json (s : Mdp.Solver.stats) =
  [
    ("solver_states", Obs.Json.Int s.states);
    ("solver_memo_hits", Obs.Json.Int s.memo_hits);
    ("solver_memo_misses", Obs.Json.Int s.memo_misses);
    ("solver_max_depth", Obs.Json.Int s.max_depth);
  ]

let mc_json (r : Adversary.Monte_carlo.result) =
  [
    ("mc_trials", Obs.Json.Int r.trials);
    ("mc_bad", Obs.Json.Int r.bad);
    ("mc_deadlocks", Obs.Json.Int r.deadlocks);
    ("mc_step_limited", Obs.Json.Int r.step_limited);
    ("mc_fraction", Obs.Json.Float r.fraction);
    ("mc_ci_low", Obs.Json.Float r.ci_low);
    ("mc_ci_high", Obs.Json.Float r.ci_high);
  ]

let finish t =
  let counter_deltas =
    List.filter_map
      (fun (name, v) ->
        let v0 =
          match List.assoc_opt name t.counters0 with Some v0 -> v0 | None -> 0
        in
        if v > v0 then Some (name, Obs.Json.Int (v - v0)) else None)
      (Obs.Metrics.counters ())
  in
  if counter_deltas <> [] then
    Obs.Results.add_section_metrics t.section
      [ ("counters", Obs.Json.Obj counter_deltas) ];
  Obs.Results.add_section_metrics t.section
    [
      ( "gc",
        Obs.Json.Obj
          [ ("minor_words", Obs.Json.Float (Gc.minor_words () -. t.minor_words0)) ]
      );
    ];
  if not (Table.is_empty t.table) then Table.print t.table

let write_json ~path =
  (try Obs.Results.write doc ~path
   with Sys_error e ->
     Fmt.epr "cannot write results: %s@." e;
     exit 1);
  Fmt.pr "@.results JSON written to %s@." path
