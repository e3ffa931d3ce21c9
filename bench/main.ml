(* Benchmark harness: one table of suites, each writing one JSON-lines
   dump under the --out directory (default: the current one).

     figures    the paper's tables and figures under a tracer, plus the
                instrumented convergence workloads         BENCH_1.json
     micro      Bechamel micro-benchmarks (console table only)
     scaling    generated 200/500/1000-AS internets        BENCH_3.json
     serve      serve-daemon load generator                BENCH_6.json
     chaos      resilience grid                            BENCH_7.json
     ingest     GC-stamped ingest grid                     BENCH_8.json
     classify   classifier corpus/training grid            BENCH_9.json
     community  community-telemetry head-to-head grid      BENCH_10.json

   Every suite asserts its determinism contract (identical results at
   every job count) and fails on a broken one.  BENCH_4.json and
   BENCH_5.json are history from the retired stream and collector-mesh
   suites; the ingest grid re-measures both workloads.

   Run everything:  dune exec bench/main.exe
   CI figures:      dune exec bench/main.exe -- --smoke
                    (or: dune build @bench-smoke)
   Chosen suites:   dune exec bench/main.exe -- --suite serve,chaos --smoke --out DIR *)

open Bechamel
open Toolkit
open Net
module Srv = Measurement.Synthetic_routeviews

let say fmt = Printf.printf (fmt ^^ "\n%!")

let banner title =
  say "";
  say "==================================================================";
  say "== %s" title;
  say "=================================================================="

(* ------------------------------------------------------------------ *)
(* Shared harness code.                                                 *)

let cores = Domain.recommended_domain_count ()
let cores_label = ("cores", string_of_int cores)

(* Grid points that oversubscribe the machine — more worker domains (or
   clients) than cores — are stamped [saturated=true] so BENCH
   trajectories stay comparable across machines: a flat or negative
   speedup at a saturated point is expected oversubscription, not a
   scaling regression.  On a single-core runner every jobs>1 point is
   saturated and only the jobs=1 numbers are meaningful. *)
let stamp jobs =
  [ cores_label; ("saturated", string_of_bool (jobs > cores)) ]

let grid_jobs = [ 1; 2; 4; 8 ]

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (Unix.gettimeofday () -. t0, r)

(* One grid point as JSON lines: [counters] and [gauges] registered on
   [reg] (a fresh registry unless the suite filled one already), every
   line stamped with [labels]. *)
let point ?(reg = Obs.Registry.create ()) ~labels ~counters ~gauges oc =
  List.iter
    (fun (name, v) -> Obs.Registry.Counter.add (Obs.Registry.counter reg name) v)
    counters;
  List.iter
    (fun (name, v) -> Obs.Registry.Gauge.set (Obs.Registry.gauge reg name) v)
    gauges;
  output_string oc (Obs.Registry.to_json_lines ~extra:labels reg)

(* The determinism contract: every grid point yields the same value. *)
let check_identical ~suite ~what = function
  | [] -> ()
  | v :: rest ->
    let same = List.for_all (( = ) v) rest in
    say "   %s identical at every job count: %b" what same;
    if not same then
      failwith (Printf.sprintf "%s suite: %s differ across job counts" suite what)

let print_table header rows =
  print_string (Mutil.Text_table.render ~header rows)

let seconds s = Printf.sprintf "%.3f s" s
let rate n s = Printf.sprintf "%.0f" (float_of_int n /. s)
let micros s = Printf.sprintf "%.1f us" (1e6 *. s)

(* The annotated synthetic RouteViews archive as day batches, both fault
   origins distrusted: the fixture every archive-driven suite replays. *)
let archive ~smoke =
  Stream.Source.archive_batches
    ~annotate:(Stream.Source.trusted_annotator ~distrusted:Srv.fault_ases ())
    (if smoke then Srv.smoke_params else Srv.default_params)

(* The archive split over [vantages] collectors at 65% coverage (every
   event forced to at least one). *)
let vantage_streams ~vantages batches =
  Collect.Vantage.replay ~coverage:0.65 ~vantages ~seed:0xC011EC7L batches

(* ------------------------------------------------------------------ *)
(* figures: the paper's tables and figures, then instrumented
   convergence workloads (BENCH_1.json).                                *)

let regenerate_figures ?(tracer = Obs.Span.noop) ?jobs () =
  banner "Topologies (Section 5.1)";
  List.iter
    (fun t -> say "%s" (Topology.Paper_topologies.describe t))
    (Topology.Paper_topologies.all ());
  banner "Figure 4: daily MOAS conflicts";
  let summary =
    Obs.Span.with_span tracer "measurement pipeline (Figures 4+5)" @@ fun () ->
    Measurement.Report.run Srv.default_params
  in
  print_string (Measurement.Report.figure4_text summary);
  banner "Figure 5: MOAS durations + Section 3 statistics";
  print_string (Measurement.Report.figure5_text summary);
  print_string (Measurement.Report.summary_table summary);
  banner "Experiment 1 (Figure 9): MOAS list effectiveness, 46-AS";
  List.iter
    (fun f -> print_string (Experiments.Figures.render f))
    (Experiments.Figures.figure9 ?jobs ~tracer ());
  banner "Experiment 2 (Figure 10): topology sizes";
  List.iter
    (fun f -> print_string (Experiments.Figures.render f))
    (Experiments.Figures.figure10 ?jobs ~tracer ());
  banner "Experiment 3 (Figure 11): partial deployment";
  List.iter
    (fun f -> print_string (Experiments.Figures.render f))
    (Experiments.Figures.figure11 ?jobs ~tracer ());
  banner "Headline statistics (paper vs measured)";
  print_string (Experiments.Figures.summary_table ?jobs ~tracer ());
  banner "Ablations (Sections 4.3-4.4)";
  print_string
    (Obs.Span.with_span tracer "ablations" (fun () ->
         Experiments.Ablation.render_all ?jobs ()));
  banner "Fault-event detection on the Figure 4 series";
  print_string
    (Measurement.Anomaly.render (Measurement.Anomaly.spikes_of_summary summary));
  say "  (expected: 1998-04-07 and the two-day 2001-04-06 event, nothing else)";
  banner "Off-line monitor vantage study (Section 4.2)";
  print_string
    (Experiments.Vantage_study.render
       ( Obs.Span.with_span tracer "vantage study" @@ fun () ->
         Experiments.Vantage_study.study
           ~topology:(Topology.Paper_topologies.topology_46 ())
           () ));
  banner "Detection and convergence dynamics (full deployment, 46-AS)";
  print_string
    (Experiments.Convergence.render
       ( Obs.Span.with_span tracer "convergence study" @@ fun () ->
         Experiments.Convergence.study
           ~topology:(Topology.Paper_topologies.topology_46 ())
           () ));
  banner "DNS-based verification and its circular dependency (Section 2)";
  print_string
    (Experiments.Dns_study.render
       ( Obs.Span.with_span tracer "DNS study" @@ fun () ->
         Experiments.Dns_study.study
           ~topology:(Topology.Paper_topologies.topology_46 ())
           () ));
  banner "Related-work comparison (Sections 2 and 6)";
  print_string
    (Baselines.Comparison.render
       ( Obs.Span.with_span tracer "baseline comparison" @@ fun () ->
         Baselines.Comparison.head_to_head
           ~topology:(Topology.Paper_topologies.topology_46 ())
           () ));
  say
    "  S-BGP is perfect while keys hold but fails closed (routeless ASes) and";
  say
    "  collapses on one compromised key; the MOAS list degrades gracefully and";
  say "  needs no key infrastructure - the paper's Section 6 argument."

(* One live registry per topology; the engine, every router and every
   detector feed it, and the per-workload dumps (stamped with a
   "workload" label) make up the bulk of BENCH_1.json. *)
let workloads =
  [
    ("25-AS", Topology.Paper_topologies.topology_25, 3);
    ("46-AS", Topology.Paper_topologies.topology_46, 5);
    ("63-AS", Topology.Paper_topologies.topology_63, 8);
  ]

let run_instrumented_workloads () =
  banner "Instrumented workloads (lib/obs registry, Full MOAS deployment)";
  List.map
    (fun (name, topology, n_attackers) ->
      let t = topology () in
      let metrics = Obs.Registry.create () in
      let rng = Mutil.Rng.of_int 97 in
      let scenario =
        Attack.Scenario.random rng ~graph:t.Topology.Paper_topologies.graph
          ~stub:t.Topology.Paper_topologies.stub ~n_origins:1 ~n_attackers
          ~deployment:Moas.Deployment.Full
      in
      ignore (Attack.Scenario.run ~metrics (Mutil.Rng.of_int 3) scenario);
      say "";
      say "-- workload %s: 1 origin, %d attackers --" name n_attackers;
      say "   events executed: %d, updates sent: %d, received: %d, alarms: %d"
        (Obs.Registry.counter_value metrics "sim_events_executed")
        (Obs.Registry.counter_value metrics "bgp_updates_sent_total")
        (Obs.Registry.counter_value metrics "bgp_updates_received_total")
        (Obs.Registry.counter_value metrics "moas_alarms_total");
      (name, metrics))
    workloads

let run_figures ~smoke:_ ~jobs oc =
  let tracer = Obs.Span.create () in
  regenerate_figures ~tracer ?jobs ();
  let named_registries = run_instrumented_workloads () in
  banner "Phase timings (lib/obs spans)";
  print_string (Obs.Span.to_table tracer);
  List.iter
    (fun (workload, metrics) ->
      output_string oc
        (Obs.Registry.to_json_lines ~extra:[ ("workload", workload) ] metrics))
    named_registries;
  output_string oc
    (Obs.Span.to_json_lines ~extra:[ ("workload", "figures") ] tracer)

(* ------------------------------------------------------------------ *)
(* micro: Bechamel micro-benchmarks, one per table/figure workload.     *)

let victim = Prefix.of_string "192.0.2.0/24"

let scenario_runner ~topology ~deployment ~n_attackers =
  let t = topology () in
  let rng = Mutil.Rng.of_int 97 in
  let scenario =
    Attack.Scenario.random rng ~graph:t.Topology.Paper_topologies.graph
      ~stub:t.Topology.Paper_topologies.stub ~n_origins:1 ~n_attackers
      ~deployment
  in
  fun () -> ignore (Attack.Scenario.run (Mutil.Rng.of_int 3) scenario)

let bench_trie () =
  let prefixes =
    List.init 512 (fun i ->
        Prefix.make (Ipv4.of_octets (i mod 223) (i / 7 mod 255) 0 0) 16)
  in
  let trie =
    Prefix_trie.of_list (List.map (fun p -> (p, Prefix.length p)) prefixes)
  in
  let addr = Ipv4.of_octets 100 20 3 4 in
  fun () -> ignore (Prefix_trie.longest_match addr trie)

let bench_decision () =
  let route i =
    {
      Bgp.Route.prefix = victim;
      as_path = Bgp.As_path.of_list (List.init ((i mod 5) + 1) (fun k -> 100 + k));
      origin = Bgp.Route.Igp;
      learned_from = Asn.make (200 + i);
      local_pref = 100;
      communities = Bgp.Community.Set.empty;
    }
  in
  let candidates = List.init 12 route in
  fun () -> ignore (Bgp.Decision.best ~self:(Asn.make 1) candidates)

let bench_moas_check () =
  let oracle = Moas.Origin_verification.create () in
  Moas.Origin_verification.register oracle victim (Asn.Set.of_list [ 10; 20 ]);
  let detector =
    Moas.Detector.create ~backend:(Moas.Detector.Oracle oracle)
      ~self:(Asn.make 1) ()
  in
  let validator = Moas.Detector.validator detector in
  let legit = Moas.Moas_list.encode (Asn.Set.of_list [ 10; 20 ]) in
  let forged = Moas.Moas_list.encode (Asn.Set.of_list [ 10; 20; 666 ]) in
  let mk ~from ~path ~communities =
    {
      Bgp.Route.prefix = victim;
      as_path = Bgp.As_path.of_list path;
      origin = Bgp.Route.Igp;
      learned_from = Asn.make from;
      local_pref = 100;
      communities;
    }
  in
  let candidates =
    [
      mk ~from:2 ~path:[ 2; 10 ] ~communities:legit;
      mk ~from:3 ~path:[ 3; 20 ] ~communities:legit;
      mk ~from:4 ~path:[ 666 ] ~communities:forged;
    ]
  in
  fun () -> ignore (validator ~now:0.0 ~prefix:victim candidates)

let bench_event_queue () =
 fun () ->
  let q = Sim.Event_queue.create () in
  for i = 0 to 255 do
    Sim.Event_queue.push q ~time:(float_of_int ((i * 37) mod 97)) i
  done;
  let rec drain () =
    match Sim.Event_queue.pop q with
    | Some _ -> drain ()
    | None -> ()
  in
  drain ()

let bench_wire () =
  let update =
    Bgp.Update.announce ~sender:(Asn.make 1)
      {
        Bgp.Route.prefix = victim;
        as_path = Bgp.As_path.of_list [ 1; 2; 3 ];
        origin = Bgp.Route.Igp;
        learned_from = Asn.make 1;
        local_pref = 100;
        communities = Moas.Moas_list.encode (Asn.Set.of_list [ 3; 4 ]);
      }
  in
  let message = Bgp.Wire.of_update update in
  fun () -> ignore (Bgp.Wire.decode (Bgp.Wire.encode message))

let tests () =
  let module T = Topology.Paper_topologies in
  let scenario topology deployment =
    scenario_runner ~topology ~deployment ~n_attackers:5
  in
  List.map
    (fun (name, run) -> Test.make ~name (Staged.stage run))
    [
      ( "fig4+5: measurement pipeline (1/10 archive)",
        fun () -> ignore (Measurement.Report.run Srv.smoke_params) );
      ( "fig9: 46-AS scenario, Normal BGP",
        scenario T.topology_46 Moas.Deployment.Disabled );
      ("fig9: 46-AS scenario, Full MOAS", scenario T.topology_46 Moas.Deployment.Full);
      ("fig10: 25-AS scenario, Full MOAS", scenario T.topology_25 Moas.Deployment.Full);
      ("fig10: 63-AS scenario, Full MOAS", scenario T.topology_63 Moas.Deployment.Full);
      ( "fig11: 63-AS scenario, Half MOAS",
        scenario T.topology_63 (Moas.Deployment.Fraction 0.5) );
      ( "summary: topology derivation (25-AS pipeline)",
        fun () -> ignore (T.build ~seed:0x4d4f4153L ~target_size:25 ()) );
      ("core: MOAS consistency check + oracle", bench_moas_check ());
      ("core: BGP decision process (12 candidates)", bench_decision ());
      ("substrate: prefix-trie longest match (512 prefixes)", bench_trie ());
      ("substrate: event queue push/pop (256 events)", bench_event_queue ());
      ("substrate: BGP wire encode+decode roundtrip", bench_wire ());
    ]

(* The micro suite has no dump: its table goes to [oc], the console. *)
let run_micro ~smoke:_ ~jobs:_ oc =
  banner "Micro-benchmarks (Bechamel; time per run)";
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let instances = Instance.[ monotonic_clock ] in
  let analysis =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results =
    List.concat_map
      (fun test ->
        let raw = Benchmark.all cfg instances test in
        let ols = Analyze.all analysis Instance.monotonic_clock raw in
        Hashtbl.fold
          (fun name o acc ->
            let ns =
              match Analyze.OLS.estimates o with
              | Some (est :: _) -> est
              | Some [] | None -> nan
            in
            (name, ns) :: acc)
          ols [])
      (tests ())
  in
  let pretty_time ns =
    if Float.is_nan ns then "n/a"
    else if ns > 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
    else if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
    else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
    else Printf.sprintf "%.0f ns" ns
  in
  let rows = List.map (fun (name, ns) -> [ name; pretty_time ns ]) results in
  output_string oc
    (Mutil.Text_table.render ~header:[ "benchmark"; "time/run" ] rows)

(* ------------------------------------------------------------------ *)
(* scaling: generated internets well beyond the paper's 63-AS meshes,
   full MOAS deployment, a fixed batch of runs on the Exec.Pool at
   increasing job counts (BENCH_3.json).  Outcomes must be identical at
   every job count. *)

let scaling_sizes = [ (200, 4); (500, 10); (1000, 20) ]
let scaling_runs = 8

let scaling_params size =
  (* keep the generator's three-tier shape while scaling the node count:
     ~2% tier-1 backbones, ~10% tier-2 transits, the rest stubs *)
  let tier1 = max 3 (size / 50) in
  let tier2 = max 8 (size / 10) in
  {
    Topology.Generate.default_params with
    Topology.Generate.tier1_count = tier1;
    tier2_count = tier2;
    stub_count = size - tier1 - tier2;
  }

let run_scaling ~smoke:_ ~jobs:_ oc =
  banner "Large-topology scaling (generated internets, Full MOAS)";
  List.iter
    (fun (size, n_attackers) ->
      let internet =
        Topology.Generate.generate
          (Mutil.Rng.of_int (0x5CA1 + size))
          (scaling_params size)
      in
      let graph = internet.Topology.Generate.graph in
      say "";
      say "-- %d ASes (%d links, %d stubs): %d runs, %d attackers each --"
        (Topology.As_graph.node_count graph)
        (Topology.As_graph.edge_count graph)
        (Asn.Set.cardinal internet.Topology.Generate.stub)
        scaling_runs n_attackers;
      let root = Mutil.Rng.of_int (0xBEAC + size) in
      (* one batch per job count; every task builds its own scenario,
         registry and engine from a pre-split stream, so the batch result
         is identical at every job count *)
      let batch jobs =
        let elapsed, results =
          time (fun () ->
              Exec.Pool.map ~jobs
                (fun r ->
                  let rng = Mutil.Rng.split_at root r in
                  let scenario =
                    Attack.Scenario.random rng ~graph
                      ~stub:internet.Topology.Generate.stub ~n_origins:1
                      ~n_attackers ~deployment:Moas.Deployment.Full
                  in
                  let metrics = Obs.Registry.create () in
                  let o = Attack.Scenario.run ~metrics rng scenario in
                  ( metrics,
                    Attack.Scenario.
                      ( o.fraction_adopting,
                        o.alarm_count,
                        o.updates_sent,
                        o.converged_at ) ))
                (Array.init scaling_runs Fun.id))
        in
        let merged = Obs.Registry.create () in
        Array.iter (fun (m, _) -> Obs.Registry.merge ~into:merged m) results;
        ( jobs,
          elapsed,
          Obs.Registry.counter_value merged "sim_events_executed",
          Array.map snd results )
      in
      let measured = List.map batch grid_jobs in
      let t1 = match measured with (_, e, _, _) :: _ -> e | [] -> nan in
      print_table
        [ "jobs"; "wall clock"; "events/s"; "speedup vs 1 job" ]
        (List.map
           (fun (jobs, elapsed, events, _) ->
             [
               string_of_int jobs;
               seconds elapsed;
               rate events elapsed;
               Printf.sprintf "%.2fx" (t1 /. elapsed);
             ])
           measured);
      check_identical ~suite:"scaling" ~what:"outcomes"
        (List.map (fun (_, _, _, outcomes) -> outcomes) measured);
      List.iter
        (fun (jobs, elapsed, events, _) ->
          point oc
            ~labels:
              (("workload", Printf.sprintf "scaling-%d-as" size)
              :: ("jobs", string_of_int jobs)
              :: ("runs", string_of_int scaling_runs)
              :: stamp jobs)
            ~counters:[ ("scaling_events_executed", events) ]
            ~gauges:
              [
                ("scaling_wall_clock_seconds", elapsed);
                ("scaling_events_per_second", float_of_int events /. elapsed);
                ("scaling_speedup_vs_one_job", t1 /. elapsed);
              ])
        measured)
    scaling_sizes

(* ------------------------------------------------------------------ *)
(* Serving suites.  An episode store built from a mesh run over the
   synthetic archive sits behind Serve.Server; clients send one
   deterministic query mix, every request and response crossing the full
   MOASSERV wire codec.  Every load point also dumps the daemon's own
   instruments (per-kind request counters, shed/timeout counters, the
   latency histogram) under [side=daemon].                              *)

let serve_vantages = 4

(* The store, its entries and the archive batches it was built from. *)
let serve_fixture ~smoke =
  let batches = archive ~smoke in
  let store =
    Collect.Store.of_correlation
      (Collect.Correlator.of_result
         (Collect.Mesh.run Stream.Monitor.default_config
            (vantage_streams ~vantages:serve_vantages batches)))
  in
  (store, Array.of_list (Collect.Store.entries store), batches)

(* Request [i] of the query mix, cycling over the stored episodes: exact
   prefix, covered prefix, origin count, visibility floor, whole count. *)
let request entries i =
  let e = entries.(i mod Array.length entries) in
  let open Collect.Query in
  match i mod 5 with
  | 0 -> Serve.Proto.Query (empty |> prefix e.Collect.Correlator.x_prefix)
  | 1 ->
    Serve.Proto.Query (empty |> prefix e.Collect.Correlator.x_prefix |> covered)
  | 2 ->
    Serve.Proto.Count
      (match Asn.Set.min_elt_opt e.Collect.Correlator.x_origins with
      | Some a -> empty |> origin a
      | None -> empty)
  | 3 -> Serve.Proto.Query (empty |> min_visibility (1 + (i mod serve_vantages)))
  | _ -> Serve.Proto.Count empty

type load = { lats : float array; rejected : int; failed : int }

(* Send requests [first, first + n) of the mix through [client], timing
   each.  Rejected replies and transport failures are counted; any other
   non-answer fails [suite]. *)
let timed_requests ~suite client entries ~first n =
  let lats = Array.make n 0.0 in
  let rejected = ref 0 in
  let failed = ref 0 in
  for k = 0 to n - 1 do
    let t = Unix.gettimeofday () in
    (match Serve.Client.call client (request entries (first + k)) with
    | Serve.Proto.Entries _ | Serve.Proto.Count_is _ -> ()
    | Serve.Proto.Rejected _ -> incr rejected
    | r ->
      failwith (suite ^ " suite: unexpected response " ^ Serve.Proto.render_response r)
    | exception Serve.Client.Failed _ -> incr failed);
    lats.(k) <- Unix.gettimeofday () -. t
  done;
  { lats; rejected = !rejected; failed = !failed }

(* Wall clock, queries/s, p50 and p99 of [lats] (sorted in place); fails
   [suite] on a zero throughput. *)
let summarise ~suite elapsed lats =
  Array.sort compare lats;
  let n = Array.length lats in
  let pct p = lats.(min (n - 1) (p * n / 100)) in
  let qps = float_of_int n /. elapsed in
  if not (qps > 0.0) then failwith (suite ^ " suite: zero measured throughput");
  (elapsed, qps, pct 50, pct 99)

let latency_cells (elapsed, qps, p50, p99) =
  [ seconds elapsed; Printf.sprintf "%.0f" qps; micros p50; micros p99 ]

let latency_gauges prefix (elapsed, qps, p50, p99) =
  [
    (prefix ^ "_wall_clock_seconds", elapsed);
    (prefix ^ "_queries_per_second", qps);
    (prefix ^ "_latency_p50_seconds", p50);
    (prefix ^ "_latency_p99_seconds", p99);
  ]

(* serve: client pools of 1/2/4/8 against one server (BENCH_6.json). *)
let run_serve ~smoke ~jobs:_ oc =
  banner "Serve daemon load generator (MOASSERV wire protocol)";
  let store, entries, _ = serve_fixture ~smoke in
  let total = if smoke then 4_000 else 60_000 in
  say "   store: %d episodes over %d vantages; %d requests per grid point"
    (Array.length entries) serve_vantages total;
  let measured =
    List.map
      (fun clients ->
        let metrics = Obs.Registry.create () in
        let server = Serve.Server.create ~metrics ~store () in
        let per_client = total / clients in
        let elapsed, loads =
          time (fun () ->
              Exec.Pool.map ~jobs:clients
                (fun c ->
                  let client = Serve.Client.connect server in
                  let load =
                    timed_requests ~suite:"serve" client entries
                      ~first:(c * per_client) per_client
                  in
                  Serve.Client.close client;
                  load)
                (Array.init clients Fun.id))
        in
        if Array.exists (fun l -> l.rejected + l.failed > 0) loads then
          failwith "serve suite: a request was rejected or failed";
        let lats = Array.concat (Array.to_list (Array.map (fun l -> l.lats) loads)) in
        (clients, Array.length lats, summarise ~suite:"serve" elapsed lats, metrics))
      (if smoke then [ 4 ] else grid_jobs)
  in
  print_table
    [ "clients"; "wall clock"; "queries/s"; "p50"; "p99" ]
    (List.map
       (fun (clients, _, s, _) -> string_of_int clients :: latency_cells s)
       measured);
  List.iter
    (fun (clients, n, s, metrics) ->
      let labels =
        ("workload", "serve-load")
        :: ("clients", string_of_int clients)
        :: ("entries", string_of_int (Array.length entries))
        :: stamp clients
      in
      point oc ~labels
        ~counters:[ ("serve_queries_total", n) ]
        ~gauges:(latency_gauges "serve" s);
      point oc ~reg:metrics ~labels:(("side", "daemon") :: labels) ~counters:[]
        ~gauges:[])
    measured

(* chaos: the same store under two arms (BENCH_7.json).  [lossy-transport]
   puts Chaos.transport with the lossy plan between a retrying client and
   the server, so dropped requests and replies cost real retries;
   [degraded-mode] kills the live tail mid-ingest with a failing source,
   then sends the same mix to the read-only server, which must report
   itself degraded.  The fault-free arm is the serve suite's 1-client
   point. *)

let chaos_retry =
  (* real backoff sleeps would measure the policy, not the server: keep
     the retry schedule but make the pauses negligible *)
  {
    Serve.Client.default_retry with
    Serve.Client.attempts = 4;
    base_delay = 1e-4;
    max_delay = 1e-3;
  }

let run_chaos ~smoke ~jobs:_ oc =
  banner "Resilience grid (chaos transport + degraded mode)";
  let store, entries, batches = serve_fixture ~smoke in
  let total = if smoke then 2_000 else 20_000 in
  say "   store: %d episodes over %d vantages; %d requests per arm"
    (Array.length entries) serve_vantages total;
  let root = Mutil.Rng.create ~seed:0xC4A05L in
  let arms =
    [
      ( "lossy-transport",
        fun server ->
          let transport =
            Chaos.transport ~rng:(Mutil.Rng.split_at root 1) ~plan:Chaos.lossy
              server
          in
          Serve.Client.connect_via ~retry:chaos_retry
            ~rng:(Mutil.Rng.split_at root 2)
            transport );
      ( "degraded-mode",
        fun server ->
          let keep = if smoke then 20 else 60 in
          ignore
            (Serve.Server.tail server
               (Chaos.failing_source ~after:keep (Array.to_list batches)));
          (match Serve.Server.health server with
          | Serve.Server.Degraded _ -> ()
          | Serve.Server.Serving ->
            failwith "chaos suite: degraded arm is still serving");
          Serve.Client.connect server );
    ]
  in
  let measured =
    List.map
      (fun (name, connect) ->
        let metrics = Obs.Registry.create () in
        let server = Serve.Server.create ~metrics ~store () in
        let client = connect server in
        let elapsed, load =
          time (fun () ->
              timed_requests ~suite:"chaos" client entries ~first:0 total)
        in
        Serve.Client.close client;
        ( name,
          summarise ~suite:"chaos" elapsed load.lats,
          load,
          Serve.Client.retries client,
          server,
          metrics ))
      arms
  in
  print_table
    [ "arm"; "wall clock"; "queries/s"; "p50"; "p99"; "retries"; "failed" ]
    (List.map
       (fun (name, s, load, retries, _, _) ->
         (name :: latency_cells s)
         @ [ string_of_int retries; string_of_int load.failed ])
       measured);
  List.iter
    (fun (name, s, load, retries, server, metrics) ->
      let labels =
        [
          ("workload", "chaos-resilience");
          ("arm", name);
          cores_label;
          ("entries", string_of_int (Array.length entries));
        ]
      in
      point oc ~labels
        ~counters:
          [
            ("chaos_requests_total", total);
            ("chaos_failed_total", load.failed);
            ("chaos_rejected_total", load.rejected);
            ("chaos_retries_total", retries);
            ("chaos_shed_total", Serve.Server.shed_total server);
            ("chaos_timeouts_total", Serve.Server.timeout_total server);
          ]
        ~gauges:(latency_gauges "chaos" s);
      point oc ~reg:metrics ~labels:(("side", "daemon") :: labels) ~counters:[]
        ~gauges:[])
    measured

(* ------------------------------------------------------------------ *)
(* ingest: the two hottest end-to-end ingest workloads — the stream
   firehose and the collector mesh — with GC telemetry (BENCH_8.json).
   Every grid point stamps minor words allocated per ingested event
   (counted over all domains) next to throughput; reports must be
   byte-identical across the grid.  The jobs=1 figure must stay within
   [ingest_budget], and on a machine with at least four cores jobs=4 must
   not be slower than jobs=1. *)

let ingest_budget = 60.0
let ingest_vantage_counts = [ 2; 4; 8 ]

let run_ingest ~smoke ~jobs:_ oc =
  banner "Allocation-free ingest grid (GC-stamped throughput)";
  let batches = archive ~smoke in
  let archive_events =
    Array.fold_left (fun n b -> n + Array.length b.Stream.Source.events) 0 batches
  in
  let runs = if smoke then 2 else 3 in
  say "   archive: %d day batches, %d update events, %d runs per grid point"
    (Array.length batches) archive_events runs;
  (* per-run wall clock and minor words.  Gc.minor_words counts only the
     calling domain, so words come from Gc.quick_stat, which adds the
     pool's domains; its count for the calling domain only advances at a
     minor collection, hence the Gc.minor before each (untimed) read. *)
  let measure replay jobs =
    let minor_words () =
      Gc.minor ();
      (Gc.quick_stat ()).Gc.minor_words
    in
    let w0 = minor_words () in
    let elapsed, state =
      time (fun () ->
          for _ = 2 to runs do
            ignore (replay jobs)
          done;
          replay jobs)
    in
    let per_run x = x /. float_of_int runs in
    (per_run elapsed, per_run (minor_words () -. w0), state)
  in
  (* measured: (jobs, elapsed, minor words per event, rendered report) *)
  let emit ~workload ~extra ~events measured =
    let t1 = match measured with (_, e, _, _) :: _ -> e | [] -> nan in
    print_table
      [ "jobs"; "wall clock"; "events/s"; "speedup"; "minor words/event" ]
      (List.map
         (fun (jobs, elapsed, wpe, _) ->
           [
             string_of_int jobs;
             seconds elapsed;
             rate events elapsed;
             Printf.sprintf "%.2fx" (t1 /. elapsed);
             Printf.sprintf "%.1f" wpe;
           ])
         measured);
    check_identical ~suite:"ingest" ~what:(workload ^ " reports")
      (List.map (fun (_, _, _, r) -> r) measured);
    List.iter
      (fun (jobs, elapsed, wpe, _) ->
        point oc
          ~labels:
            ((("workload", workload)
             :: ("jobs", string_of_int jobs)
             :: ("runs", string_of_int runs)
             :: ("events", string_of_int events)
             :: stamp jobs)
            @ extra)
          ~counters:[ ("ingest_events_total", events) ]
          ~gauges:
            [
              ("ingest_wall_clock_seconds", elapsed);
              ("ingest_events_per_second", float_of_int events /. elapsed);
              ("ingest_speedup_vs_one_job", t1 /. elapsed);
              ("ingest_minor_words_per_event", wpe);
            ])
      measured;
    match measured with
    | (1, elapsed1, wpe1, _) :: _ -> (
      if wpe1 > ingest_budget then
        failwith
          (Printf.sprintf
             "ingest suite: %s allocates %.1f minor words/event at jobs=1, \
              budget is %.1f"
             workload wpe1 ingest_budget);
      match List.find_opt (fun (j, _, _, _) -> j = 4) measured with
      | Some (_, elapsed4, _, _) when cores >= 4 && elapsed4 > elapsed1 ->
        failwith
          (Printf.sprintf
             "ingest suite: %s is slower at jobs=4 than jobs=1 on a %d-core \
              machine"
             workload cores)
      | _ -> ())
    | _ -> ()
  in
  (* workload 1: the stream firehose — the archive re-chunked into
     pool-sized batches through the sharded monitor *)
  say "";
  say "-- workload stream-firehose --";
  let firehose_chunks =
    let all =
      Array.concat
        (Array.to_list (Array.map (fun b -> b.Stream.Source.events) batches))
    in
    let chunk = 2 * Stream.Sharded.parallel_threshold in
    let n = (Array.length all + chunk - 1) / chunk in
    Array.init n (fun i ->
        let lo = i * chunk in
        let events = Array.sub all lo (min chunk (Array.length all - lo)) in
        (events.(Array.length events - 1).Stream.Monitor.time, events))
  in
  let replay_firehose jobs =
    let monitor = Stream.Sharded.create ~jobs Stream.Monitor.default_config in
    Array.iter
      (fun (time, events) -> Stream.Sharded.ingest_batch monitor ~time events)
      firehose_chunks;
    monitor
  in
  emit ~workload:"stream-firehose" ~extra:[] ~events:archive_events
    (List.map
       (fun jobs ->
         let elapsed, words, monitor = measure replay_firehose jobs in
         ( jobs,
           elapsed,
           words /. float_of_int archive_events,
           Stream.Report.render (Stream.Sharded.snapshot monitor) ))
       grid_jobs);
  (* workload 2: the collector mesh; the lossless union makes the merged
     report one fixed reference across vantage counts too *)
  let reference_report = ref None in
  List.iter
    (fun vantages ->
      let streams = vantage_streams ~vantages batches in
      let stream_events =
        List.fold_left (fun acc (_, evs) -> acc + Array.length evs) 0 streams
      in
      say "";
      say "-- workload collect-mesh: %d vantages --" vantages;
      let measured =
        List.map
          (fun jobs ->
            let elapsed, words, r =
              measure
                (fun jobs ->
                  Collect.Mesh.run ~jobs Stream.Monitor.default_config streams)
                jobs
            in
            let events = stream_events + r.Collect.Mesh.r_merged_events in
            ( jobs,
              elapsed,
              words /. float_of_int events,
              (events, Stream.Report.render r.Collect.Mesh.r_merged) ))
          grid_jobs
      in
      let events, report =
        match measured with (_, _, _, er) :: _ -> er | [] -> (0, "")
      in
      (match !reference_report with
      | Some r0 when not (String.equal r0 report) ->
        failwith "ingest suite: merged report differs across vantage counts"
      | Some _ -> ()
      | None -> reference_report := Some report);
      emit ~workload:"collect-mesh"
        ~extra:[ ("vantages", string_of_int vantages) ]
        ~events
        (List.map (fun (j, e, w, (_, r)) -> (j, e, w, r)) measured))
    ingest_vantage_counts

(* ------------------------------------------------------------------ *)
(* classify: the lib/classify pipeline staged — parallel corpus capture,
   logistic + stump training, full train/eval — across corpus size × job
   count (BENCH_9.json).  The rendered evaluation report must be
   byte-identical at every job count, and a zero training throughput
   fails the suite, so a smoke run guards against a silently-empty
   corpus. *)

let classify_seed = 0xC1A55L

let run_classify ~smoke ~jobs:_ oc =
  banner "Classifier corpus/training grid";
  (* the paper topologies are memoised: build them outside the timed
     region so the first grid point is not charged for derivation *)
  if smoke then ignore (Topology.Paper_topologies.topology_25 ())
  else ignore (Topology.Paper_topologies.all ());
  let corpora =
    if smoke then [ ("smoke", true) ] else [ ("smoke", true); ("full", false) ]
  in
  List.iter
    (fun (label, corpus_smoke) ->
      say "";
      say "-- corpus %s --" label;
      let measured =
        List.map
          (fun jobs ->
            let t_corpus, corpus =
              time (fun () ->
                  Classify.Corpus.build ~jobs ~smoke:corpus_smoke
                    ~seed:classify_seed ())
            in
            let train, _ = Classify.Corpus.split corpus in
            let training =
              List.map
                (fun ex ->
                  (ex.Classify.Corpus.ex_features, ex.Classify.Corpus.ex_label))
                train
            in
            let t_train, () =
              time (fun () ->
                  let dim = Classify.Features.dim in
                  ignore (Classify.Model.train_logistic ~dim training);
                  ignore (Classify.Model.train_stumps ~dim training))
            in
            let t_eval, ev = time (fun () -> Classify.Eval.of_corpus corpus) in
            let throughput = float_of_int (List.length train) /. t_train in
            if not (throughput > 0.0) then
              failwith
                (Printf.sprintf
                   "classify suite: %s training throughput is zero at jobs=%d"
                   label jobs);
            ( jobs,
              corpus,
              List.length train,
              (t_corpus, t_train, t_eval, throughput),
              Classify.Eval.render ev.Classify.Eval.ev_report ))
          grid_jobs
      in
      print_table
        [ "jobs"; "corpus"; "train"; "train+eval"; "examples"; "train ex/s" ]
        (List.map
           (fun (jobs, corpus, _, (t_corpus, t_train, t_eval, throughput), _) ->
             [
               string_of_int jobs;
               seconds t_corpus;
               seconds t_train;
               seconds t_eval;
               string_of_int (List.length corpus.Classify.Corpus.c_examples);
               Printf.sprintf "%.0f" throughput;
             ])
           measured);
      check_identical ~suite:"classify" ~what:(label ^ " reports")
        (List.map (fun (_, _, _, _, r) -> r) measured);
      List.iter
        (fun (jobs, corpus, train_n, (t_corpus, t_train, t_eval, throughput), _) ->
          point oc
            ~labels:
              (("workload", "classify")
              :: ("corpus", label)
              :: ("jobs", string_of_int jobs)
              :: stamp jobs)
            ~counters:
              [
                ("classify_runs", corpus.Classify.Corpus.c_runs);
                ( "classify_examples",
                  List.length corpus.Classify.Corpus.c_examples );
                ("classify_train_examples", train_n);
              ]
            ~gauges:
              [
                ("classify_corpus_seconds", t_corpus);
                ("classify_train_seconds", t_train);
                ("classify_eval_seconds", t_eval);
                ("classify_train_examples_per_second", throughput);
              ])
        measured)
    corpora

(* ------------------------------------------------------------------ *)
(* community: the Experiments.Community evaluation — every scenario arm
   against five detectors under the community usage-policy model — at
   each job count (BENCH_10.json).  Per grid point: wall clock,
   watch-observation throughput and the per-arm precision/recall/F1 of
   every detector; the rendered report must be byte-identical across the
   grid.  Zero detection throughput or a broken Section-4.3 gap
   (scrubbing must blind the MOAS list while the community backend keeps
   firing) fails the suite. *)

let run_community ~smoke ~jobs:_ oc =
  banner "Community-telemetry head-to-head grid";
  (* memoised topologies: derive them outside the timed region *)
  if smoke then ignore (Topology.Paper_topologies.topology_25 ())
  else ignore (Topology.Paper_topologies.all ());
  let open Experiments.Community in
  let measured =
    List.map
      (fun jobs ->
        let elapsed, result = time (fun () -> evaluate ~smoke ~jobs ()) in
        if not (float_of_int result.r_events /. elapsed > 0.0) then
          failwith
            (Printf.sprintf
               "community suite: detection throughput is zero at jobs=%d" jobs);
        if not (scrubbing_gap_holds result) then
          failwith
            (Printf.sprintf
               "community suite: scrubbing gap does not hold at jobs=%d" jobs);
        (jobs, result, elapsed))
      grid_jobs
  in
  print_table
    [ "jobs"; "eval"; "runs"; "events"; "events/s" ]
    (List.map
       (fun (jobs, result, elapsed) ->
         [
           string_of_int jobs;
           seconds elapsed;
           string_of_int result.r_runs;
           string_of_int result.r_events;
           rate result.r_events elapsed;
         ])
       measured);
  check_identical ~suite:"community" ~what:"reports"
    (List.map (fun (_, result, _) -> render result) measured);
  List.iter
    (fun (jobs, result, elapsed) ->
      (* per-reason alarm counters and per-(arm, detector) scores carry
         their own labels *)
      let reg = Obs.Registry.create () in
      List.iter
        (fun (reason, n) ->
          Obs.Registry.Counter.add
            (Obs.Registry.counter reg
               ~labels:[ ("reason", Moas.Community_watch.reason_to_string reason) ]
               "community_alarms")
            n)
        result.r_reasons;
      List.iter
        (fun sc ->
          let arm =
            match sc.sc_arm with
            | Some a -> Collect.Scenario.arm_to_string a
            | None -> "overall"
          in
          let labels = [ ("arm", arm); ("detector", sc.sc_detector) ] in
          List.iter
            (fun (name, score) ->
              Obs.Registry.Gauge.set
                (Obs.Registry.gauge reg ~labels name)
                (score sc.sc_confusion))
            [
              ("community_precision", Mutil.Stats.precision);
              ("community_recall", Mutil.Stats.recall);
              ("community_f1", Mutil.Stats.f1);
            ])
        result.r_scores;
      point oc ~reg
        ~labels:
          (("workload", "community")
          :: ("corpus", if smoke then "smoke" else "full")
          :: ("jobs", string_of_int jobs)
          :: stamp jobs)
        ~counters:
          [
            ("community_runs", result.r_runs);
            ("community_watch_events", result.r_events);
            ("community_values_scrubbed", result.r_scrubbed_values);
          ]
        ~gauges:
          [
            ("community_eval_seconds", elapsed);
            ( "community_events_per_second",
              float_of_int result.r_events /. elapsed );
          ])
    measured

(* ------------------------------------------------------------------ *)
(* The suite table and the driver.  Each suite's dump file is opened
   once, under --out DIR, and closed however the suite ends.             *)

let suites =
  [
    ("figures", Some "BENCH_1.json", run_figures);
    ("micro", None, run_micro);
    ("scaling", Some "BENCH_3.json", run_scaling);
    ("serve", Some "BENCH_6.json", run_serve);
    ("chaos", Some "BENCH_7.json", run_chaos);
    ("ingest", Some "BENCH_8.json", run_ingest);
    ("classify", Some "BENCH_9.json", run_classify);
    ("community", Some "BENCH_10.json", run_community);
  ]

let suite_names = List.map (fun (name, _, _) -> name) suites

let () =
  let smoke = ref false in
  let picked = ref [] in
  let dir = ref "." in
  let jobs = ref 0 in
  let pick s =
    picked := String.split_on_char ',' s;
    List.iter
      (fun name ->
        if not (List.mem name suite_names) then
          raise
            (Arg.Bad
               (Printf.sprintf "unknown suite %S (known: %s)" name
                  (String.concat "," suite_names))))
      !picked
  in
  let spec =
    [
      ("--smoke", Arg.Set smoke, " CI-sized inputs; without --suite, run figures only");
      ( "--suite",
        Arg.String pick,
        "A,B,... suites to run, from " ^ String.concat "," suite_names
        ^ " (default: all)" );
      ("--out", Arg.Set_string dir, "DIR directory for the JSON-lines dumps (default .)");
      ("--jobs", Arg.Set_int jobs, "N worker domains for the figure sweeps (default MOAS_JOBS or the core count)");
    ]
  in
  Arg.parse (Arg.align spec)
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe [--smoke] [--suite A,B,...] [--out DIR] [--jobs N]";
  let wanted =
    match !picked with
    | [] when !smoke -> [ "figures" ]
    | [] -> suite_names
    | picked -> picked
  in
  let smoke = !smoke in
  let jobs = if !jobs >= 1 then Some !jobs else None in
  if not (Sys.file_exists !dir) then Sys.mkdir !dir 0o755;
  say "cores online: %d (Domain.recommended_domain_count)" cores;
  List.iter
    (fun (name, file, run) ->
      if List.mem name wanted then
        match file with
        | None -> run ~smoke ~jobs stdout
        | Some file ->
          let path = Filename.concat !dir file in
          let oc = open_out path in
          Fun.protect
            ~finally:(fun () -> close_out oc)
            (fun () -> run ~smoke ~jobs oc);
          say "";
          say "%s dump written to %s" name path)
    suites;
  say "";
  say "done."
