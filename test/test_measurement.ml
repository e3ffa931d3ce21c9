(* Tests for the measurement pipeline: Synthetic_routeviews generation,
   Moas_cases extraction semantics, and the Figure 4/5 reports. *)

open Net
module Srv = Measurement.Synthetic_routeviews
module Mc = Measurement.Moas_cases
module Day = Mutil.Day

(* a small but structurally complete archive for fast tests *)
let small_params =
  {
    Srv.default_params with
    Srv.universe_size = 500;
    initial_long_lived = 60;
    final_long_lived = 130;
    one_day_churn = 30;
    medium_churn = 15;
    event_1998_size = 120;
    event_2001_size = 90;
  }

let small_summary = lazy (Measurement.Report.run small_params)

let test_params_validated () =
  Alcotest.check_raises "universe too small"
    (Invalid_argument "Synthetic_routeviews: universe too small for the episodes")
    (fun () ->
      ignore
        (Srv.fold_dumps
           { small_params with Srv.universe_size = 10 }
           ~init:() ~f:(fun () _ -> ())));
  Alcotest.check_raises "shrinking pool"
    (Invalid_argument "Synthetic_routeviews: long-lived pool cannot shrink")
    (fun () ->
      ignore
        (Srv.observed_days { small_params with Srv.final_long_lived = 10 }))

let rec strictly_increasing = function
  | (a, _) :: ((b, _) :: _ as rest) ->
    Prefix.compare a b < 0 && strictly_increasing rest
  | _ -> true

let tables_increasing params =
  Srv.fold_dumps params ~init:true ~f:(fun ok dump ->
      ok && strictly_increasing dump.Srv.table)

(* the day_dump invariant the archive replay's merge diff relies on *)
let test_tables_strictly_increasing () =
  Alcotest.(check bool) "default archive" true (tables_increasing Srv.default_params);
  Alcotest.(check bool) "smoke archive" true (tables_increasing Srv.smoke_params);
  let largest = { Srv.smoke_params with Srv.universe_size = 40_000 } in
  (match Srv.dump_seq largest () with
  | Seq.Cons (dump, _) ->
    Alcotest.(check bool) "largest universe, first day" true
      (strictly_increasing dump.Srv.table)
  | Seq.Nil -> Alcotest.fail "no dump");
  Alcotest.check_raises "universe beyond the distinct prefixes"
    (Invalid_argument
       "Synthetic_routeviews: universe too large for distinct prefixes")
    (fun () ->
      ignore (Srv.observed_days { largest with Srv.universe_size = 40_001 }))

let prop_tables_strictly_increasing =
  Testutil.qtest ~count:8 "tables strictly increasing at random seeds"
    QCheck2.Gen.int (fun seed ->
      tables_increasing { Srv.smoke_params with Srv.seed = Int64.of_int seed })

let test_observed_day_count () =
  let observed = Srv.observed_days small_params in
  Alcotest.(check int) "window length" Day.measurement_days (Array.length observed);
  let count = Array.fold_left (fun n o -> if o then n + 1 else n) 0 observed in
  Alcotest.(check int) "1279 observed days"
    (Day.measurement_days - small_params.Srv.missing_day_count)
    count

let test_event_days_observed () =
  let observed = Srv.observed_days small_params in
  let off day = Day.diff day Day.measurement_start in
  Alcotest.(check bool) "1998 event day observed" true
    observed.(off Srv.event_1998);
  Alcotest.(check bool) "2001 event day observed" true
    observed.(off Srv.event_2001)

let test_dump_stream_shape () =
  let days, first_table_size =
    Srv.fold_dumps small_params ~init:(0, None) ~f:(fun (n, size) dump ->
        let size =
          match size with
          | None -> Some (List.length dump.Srv.table)
          | s -> s
        in
        (n + 1, size))
  in
  Alcotest.(check int) "one dump per observed day"
    (Day.measurement_days - small_params.Srv.missing_day_count)
    days;
  Alcotest.(check (option int)) "full universe in each dump"
    (Some small_params.Srv.universe_size)
    first_table_size

let test_dumps_deterministic () =
  let collect () =
    Srv.fold_dumps small_params ~init:[] ~f:(fun acc dump ->
        (dump.Srv.day, List.length (List.filter (fun (_, o) -> Asn.Set.cardinal o > 1) dump.Srv.table))
        :: acc)
  in
  Alcotest.(check bool) "same stream twice" true (collect () = collect ())

let test_case_counts () =
  let summary = Lazy.force small_summary in
  let expected_total =
    small_params.Srv.final_long_lived + small_params.Srv.one_day_churn
    + small_params.Srv.medium_churn + small_params.Srv.event_1998_size
    + small_params.Srv.event_2001_size
  in
  (* a few medium/long episodes may fall entirely into collector gaps *)
  Alcotest.(check bool)
    (Printf.sprintf "total cases close to %d (got %d)" expected_total
       summary.Mc.total_cases)
    true
    (summary.Mc.total_cases >= expected_total - 10
    && summary.Mc.total_cases <= expected_total)

let test_event_spikes () =
  let summary = Lazy.force small_summary in
  let base_before =
    Mc.cases_on summary (Day.add Srv.event_1998 (-1))
  in
  let spike = Mc.cases_on summary Srv.event_1998 in
  Alcotest.(check bool)
    (Printf.sprintf "1998 spike (%d) >> base (%d)" spike base_before)
    true
    (spike >= base_before + small_params.Srv.event_1998_size);
  (* the 2001 event lasts two days *)
  let spike01 = Mc.cases_on summary Srv.event_2001 in
  let spike01_next = Mc.cases_on summary (Day.add Srv.event_2001 1) in
  Alcotest.(check bool) "2001 spike on both days" true
    (spike01 >= small_params.Srv.event_2001_size
    && spike01_next >= small_params.Srv.event_2001_size)

let test_one_day_attribution () =
  let summary = Lazy.force small_summary in
  let attributed = Mc.one_day_cases_attributed_to summary Srv.fault_as_1998 in
  Alcotest.(check int) "every 1998-event case is one-day and attributed"
    small_params.Srv.event_1998_size attributed

let test_duration_semantics_non_continuous () =
  (* the paper counts total MOAS days regardless of continuity: a prefix
     seen in MOAS on days 1 and 3 (not 2) has duration 2 *)
  let p = Prefix.of_string "10.0.0.0/8" in
  let origins n = Asn.Set.of_list (List.init n (fun i -> i + 1)) in
  let acc = Mc.empty in
  let acc = Mc.ingest acc ~day:0 [ (p, origins 2) ] in
  let acc = Mc.ingest acc ~day:1 [ (p, origins 1) ] in
  let acc = Mc.ingest acc ~day:2 [ (p, origins 3) ] in
  let summary = Mc.finalize acc in
  match summary.Mc.cases with
  | [ case ] ->
    Alcotest.(check int) "duration counts MOAS days only" 2 case.Mc.moas_days;
    Alcotest.(check int) "max origins tracked" 3 case.Mc.max_origins;
    Alcotest.(check int) "first day" 0 case.Mc.first_day;
    Alcotest.(check int) "last day" 2 case.Mc.last_day
  | l -> Alcotest.failf "expected one case, got %d" (List.length l)

let test_origin_set_changes_same_case () =
  (* per the paper, duration accrues regardless of which origins are
     involved: different conflicting pairs on different days are one case *)
  let p = Prefix.of_string "10.0.0.0/8" in
  let acc = Mc.empty in
  let acc = Mc.ingest acc ~day:0 [ (p, Asn.Set.of_list [ 1; 2 ]) ] in
  let acc = Mc.ingest acc ~day:1 [ (p, Asn.Set.of_list [ 1; 3 ]) ] in
  let summary = Mc.finalize acc in
  match summary.Mc.cases with
  | [ case ] ->
    Alcotest.(check int) "one case" 2 case.Mc.moas_days;
    Alcotest.check Testutil.asn_set_testable "origins accumulate"
      (Asn.Set.of_list [ 1; 2; 3 ])
      case.Mc.origins_ever
  | l -> Alcotest.failf "expected one case, got %d" (List.length l)

let test_single_origin_never_a_case () =
  let p = Prefix.of_string "10.0.0.0/8" in
  let acc = Mc.ingest Mc.empty ~day:0 [ (p, Asn.Set.singleton 1) ] in
  let summary = Mc.finalize acc in
  Alcotest.(check int) "no case from single origin" 0 summary.Mc.total_cases

let test_duration_buckets_partition () =
  let summary = Lazy.force small_summary in
  let buckets = Mc.duration_buckets summary in
  let total = List.fold_left (fun n (_, c) -> n + c) 0 buckets in
  Alcotest.(check int) "buckets partition the cases" summary.Mc.total_cases total

let test_duration_histogram_consistent () =
  let summary = Lazy.force small_summary in
  let hist = Mc.duration_histogram summary in
  let total = List.fold_left (fun n (_, c) -> n + c) 0 hist in
  Alcotest.(check int) "histogram total" summary.Mc.total_cases total;
  let one_day = Option.value ~default:0 (List.assoc_opt 1 hist) in
  Alcotest.(check int) "1-day bin matches summary" summary.Mc.one_day_cases one_day

let test_multiplicity_fractions () =
  let summary = Lazy.force small_summary in
  let fractions = Mc.origin_multiplicity summary in
  let total = List.fold_left (fun s (_, f) -> s +. f) 0.0 fractions in
  Alcotest.(check bool) "fractions sum to 1" true (abs_float (total -. 1.0) < 1e-9);
  let two = Option.value ~default:0.0 (List.assoc_opt 2 fractions) in
  Alcotest.(check bool) "two-origin cases dominate" true (two > 0.8)

let test_median_ramp () =
  let summary = Lazy.force small_summary in
  let m98 = Mc.median_daily_in_year summary 1998 in
  let m01 = Mc.median_daily_in_year summary 2001 in
  Alcotest.(check bool)
    (Printf.sprintf "daily count grows (98: %.0f, 01: %.0f)" m98 m01)
    true (m01 > m98)

let test_report_texts () =
  let summary = Lazy.force small_summary in
  let fig4 = Measurement.Report.figure4_text summary in
  Testutil.check_contains ~what:"figure 4" fig4 "Figure 4";
  Testutil.check_contains ~what:"figure 4" fig4 "peak:";
  let fig5 = Measurement.Report.figure5_text summary in
  Testutil.check_contains ~what:"figure 5" fig5 "1 day";
  let table = Measurement.Report.summary_table summary in
  Testutil.check_contains ~what:"summary table" table "total MOAS cases";
  Testutil.check_contains ~what:"summary table" table "96.14%"

let () =
  Alcotest.run "measurement"
    [
      ( "synthetic_routeviews",
        [
          Alcotest.test_case "validation" `Quick test_params_validated;
          Alcotest.test_case "observed days" `Quick test_observed_day_count;
          Alcotest.test_case "event days observed" `Quick test_event_days_observed;
          Alcotest.test_case "stream shape" `Quick test_dump_stream_shape;
          Alcotest.test_case "deterministic" `Quick test_dumps_deterministic;
          Alcotest.test_case "tables strictly increasing" `Quick
            test_tables_strictly_increasing;
          prop_tables_strictly_increasing;
        ] );
      ( "moas_cases",
        [
          Alcotest.test_case "case counts" `Quick test_case_counts;
          Alcotest.test_case "event spikes" `Quick test_event_spikes;
          Alcotest.test_case "one-day attribution" `Quick test_one_day_attribution;
          Alcotest.test_case "non-continuous duration" `Quick
            test_duration_semantics_non_continuous;
          Alcotest.test_case "origin churn is one case" `Quick
            test_origin_set_changes_same_case;
          Alcotest.test_case "single origin ignored" `Quick
            test_single_origin_never_a_case;
          Alcotest.test_case "buckets partition" `Quick test_duration_buckets_partition;
          Alcotest.test_case "histogram consistent" `Quick
            test_duration_histogram_consistent;
          Alcotest.test_case "multiplicity" `Quick test_multiplicity_fractions;
          Alcotest.test_case "median ramp" `Quick test_median_ramp;
        ] );
      ("report", [ Alcotest.test_case "rendered text" `Quick test_report_texts ]);
    ]
