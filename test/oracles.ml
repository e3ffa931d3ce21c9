(* Reference implementations that the library replaced with linear-time
   merges, kept as differential oracles for the test suites:

   - [correlate]: the nested-scan cross-vantage correlator.  For every
     merged episode it filters each vantage's whole episode list, so it
     costs O(M * sum |V_i|) prefix comparisons, but it has no reliance on
     the order of [Stream.Report.episodes].
   - [archive_batches]: the archive replay whose day diff rebuilds a
     [Prefix.Map] of the whole table every day and looks every row up in
     it, so it has no reliance on the table order either.

   [Collect.Correlator.correlate] and [Stream.Source.archive_batches] must
   reproduce them exactly. *)

open Net
module Report = Stream.Report
module Corr = Collect.Correlator
module Monitor = Stream.Monitor
module Src = Stream.Source
module Srv = Measurement.Synthetic_routeviews

let overlaps ~started ~ended (v : Report.episode_view) =
  (* open intervals extend to the end of time *)
  let hi = Option.value ended ~default:max_int in
  let v_hi = Option.value v.Report.v_ended ~default:max_int in
  v.Report.v_started <= hi && started <= v_hi

let correlate ~vantages ~merged =
  let vantages =
    List.sort (fun (a, _) (b, _) -> String.compare a b) vantages
  in
  let views =
    List.map (fun (name, snap) -> (name, Report.episodes snap)) vantages
  in
  let entries =
    List.map
      (fun (m : Report.episode_view) ->
        let sightings =
          List.filter_map
            (fun (name, eps) ->
              let matching =
                List.filter
                  (fun (v : Report.episode_view) ->
                    Prefix.compare v.Report.v_prefix m.Report.v_prefix = 0
                    && overlaps ~started:m.Report.v_started
                         ~ended:m.Report.v_ended v)
                  eps
              in
              match matching with
              | [] -> None
              | _ ->
                let first =
                  List.fold_left
                    (fun acc (v : Report.episode_view) ->
                      min acc v.Report.v_started)
                    max_int matching
                in
                Some (name, first))
            views
        in
        let detects = List.map snd sightings in
        {
          Corr.x_prefix = m.Report.v_prefix;
          x_seq = m.Report.v_seq;
          x_started = m.Report.v_started;
          x_ended = m.Report.v_ended;
          x_days = m.Report.v_days;
          x_max_origins = m.Report.v_max_origins;
          x_origins = m.Report.v_origins;
          x_clean = m.Report.v_clean;
          x_seen_by = List.map fst sightings;
          x_first_detect =
            (match detects with
            | [] -> None
            | _ -> Some (List.fold_left min max_int detects));
          x_last_detect =
            (match detects with
            | [] -> None
            | _ -> Some (List.fold_left max min_int detects));
        })
      (Report.episodes merged)
  in
  { Corr.c_vantages = List.map fst vantages; c_entries = entries }

let day_events ~annotate ~prev dump =
  let events = ref [] in
  let emit ev = events := ev :: !events in
  let time = dump.Srv.day * Src.day_seconds in
  let today =
    List.fold_left
      (fun m (p, o) -> Prefix.Map.add p o m)
      Prefix.Map.empty dump.Srv.table
  in
  List.iter
    (fun (prefix, origins) ->
      let prev_origins =
        Option.value ~default:Asn.Set.empty (Prefix.Map.find_opt prefix prev)
      in
      if not (Asn.Set.equal origins prev_origins) then begin
        Asn.Set.iter
          (fun origin ->
            emit
              {
                Monitor.time;
                peer = origin;
                prefix;
                action = Monitor.Withdraw { origin };
              })
          (Asn.Set.diff prev_origins origins);
        Asn.Set.iter
          (fun origin ->
            emit
              {
                Monitor.time;
                peer = origin;
                prefix;
                action =
                  Monitor.Announce
                    { origin; moas_list = annotate prefix origins origin };
              })
          origins
      end)
    dump.Srv.table;
  Prefix.Map.iter
    (fun prefix prev_origins ->
      if not (Prefix.Map.mem prefix today) then
        Asn.Set.iter
          (fun origin ->
            emit
              {
                Monitor.time;
                peer = origin;
                prefix;
                action = Monitor.Withdraw { origin };
              })
          prev_origins)
    prev;
  (Array.of_list (List.rev !events), today)

let archive_batches ?(annotate = Src.no_annotation) params =
  let _, batches =
    Srv.fold_dumps params ~init:(Prefix.Map.empty, [])
      ~f:(fun (prev, acc) dump ->
        let events, today = day_events ~annotate ~prev dump in
        ( today,
          {
            Src.time = dump.Srv.day * Src.day_seconds;
            day = Some dump.Srv.day;
            events;
          }
          :: acc ))
  in
  Array.of_list (List.rev batches)
