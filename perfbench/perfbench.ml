(* The pipeline benchmark: three workloads over the synthetic RouteViews
   archive, each measured end to end, plus a traced run for the layers.

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1

   Workloads (perfbench/README.md says why each one exists):
     collect-mesh     archive streams -> Mesh.run -> Correlator -> Store
     ingest-firehose  UPDATE frames -> Wire.decode -> Source.of_wire ->
                      Sharded.ingest_batch -> snapshot -> Checkpoint
     serve-mix        closed loop of nproc in-process Serve.Clients

   An untraced run measures the workload's own phase alone for
   [--seconds] and reports the same end-to-end metrics on every workload,
   each read on that workload's operation (a collect job, an ingest job,
   a request).  A traced run also runs a small round of the other phases
   and an unloaded tail of day batches with alert polls, so that every
   layer metric exists on every workload.  Every output is checked
   against an oracle outside the timed regions.  The last line of
   standard output is the JSON result. *)

open Net
module Srv = Measurement.Synthetic_routeviews
module Store = Collect.Store
module Proto = Serve.Proto
module Client = Serve.Client
module T = Trace

let nproc = Domain.recommended_domain_count ()
let jobs = nproc
let clients = nproc
let config = Stream.Monitor.default_config
let vantages = 4
let coverage = 0.65
let firehose_replicas = 8
let pool_per_kind = 100

(* serve throughput is the median over windows this long *)
let rate_window_s = 0.5

let say fmt = Printf.printf (fmt ^^ "\n%!")

(* -- seeds ----------------------------------------------------------------- *)

(* Seed 0 is the repository's defaults: archive seed 0x524f555445, vantage
   split seed 0xC011EC7. *)
let archive_seed seed = Int64.add 0x524f555445L (Int64.of_int seed)
let vantage_seed seed = Int64.add 0xC011EC7L (Int64.of_int seed)

let annotate =
  Stream.Source.trusted_annotator
    ~distrusted:(Asn.Set.of_list [ Srv.fault_as_1998; Srv.fault_as_2001 ])
    ()

(* -- failure accounting ---------------------------------------------------- *)

let attempted = Atomic.make 0
let failed = Atomic.make 0

let check ok what =
  Atomic.incr attempted;
  if not ok then begin
    Atomic.incr failed;
    Printf.eprintf "perfbench: check failed: %s\n%!" what
  end

(* counters the traced run reads; only bumped while tracing *)
let traced_msgs = ref 0
let traced_events = ref 0
let traced_events_jobs1 = ref 0
let traced_words_jobs1 = ref 0.0
let source_events = Atomic.make 0
let alerts_drained = Atomic.make 0
let retries = Atomic.make 0
let shed = Atomic.make 0
let timeouts = Atomic.make 0

(* A server is retired once its phase is over: its overload counters are
   added up, and the server itself can be collected. *)
let retire server =
  ignore (Atomic.fetch_and_add shed (Serve.Server.shed_total server));
  ignore (Atomic.fetch_and_add timeouts (Serve.Server.timeout_total server))

(* -- firehose frames --------------------------------------------------------- *)

(* One observed day of the firehose: the day's UPDATE frames back to back
   in one buffer, with each frame's offset, length and sending peer. *)
type day_frames = {
  d_time : int;
  d_buf : bytes;
  d_pos : int array;
  d_len : int array;
  d_peer : Asn.t array;
}

(* Replica [r] of an archive prefix: replicas 1-9 move the first octet up
   by 20 per replica, later ones also take a distinct third octet (as a
   /24), so the replicas' prefix sets are disjoint. *)
let replica r p =
  if r = 0 then p
  else
    let o, s, _, _ = Ipv4.to_octets (Prefix.network p) in
    Prefix.make
      (Ipv4.of_octets (o + (20 * (r mod 10))) s (r / 10) 0)
      (if r < 10 then Prefix.length p else 24)

let replicate r (e : Stream.Monitor.event) = { e with prefix = replica r e.prefix }

(* Withdrawals carry the peer; announcements carry the path [origin] and
   the MOAS list as communities — exactly what Source.of_wire decodes. *)
let message_of (e : Stream.Monitor.event) =
  match e.action with
  | Stream.Monitor.Withdraw _ ->
    { Bgp.Wire.withdrawn = [ e.prefix ]; attributes = None; nlri = [] }
  | Stream.Monitor.Announce { origin; moas_list } ->
    {
      Bgp.Wire.withdrawn = [];
      nlri = [ e.prefix ];
      attributes =
        Some
          {
            Bgp.Wire.origin = Bgp.Route.Igp;
            as_path = Bgp.As_path.of_list [ origin ];
            local_pref = 100;
            communities =
              (match moas_list with
              | None -> Bgp.Community.Set.empty
              | Some l -> Moas.Moas_list.encode l);
          };
    }

let encode_frames ~replicas batches =
  Array.map
    (fun (b : Stream.Source.batch) ->
      let n = replicas * Array.length b.events in
      let buf = Buffer.create (64 * max 1 n) in
      let pos = Array.make n 0 and len = Array.make n 0 and peer = Array.make n 0 in
      let k = ref 0 in
      for r = 0 to replicas - 1 do
        Array.iter
          (fun e ->
            let e = replicate r e in
            let frame = Bgp.Wire.encode (message_of e) in
            pos.(!k) <- Buffer.length buf;
            len.(!k) <- Bytes.length frame;
            peer.(!k) <- e.Stream.Monitor.peer;
            Buffer.add_bytes buf frame;
            incr k)
          b.events
      done;
      { d_time = b.time; d_buf = Buffer.to_bytes buf; d_pos = pos; d_len = len; d_peer = peer })
    batches

let frame_count frames = Array.fold_left (fun acc d -> acc + Array.length d.d_pos) 0 frames

(* -- the request mix ---------------------------------------------------------- *)

let kinds = [| "exact"; "covered"; "count_origin"; "min_visibility"; "count_all" |]

type pool = {
  reqs : Proto.request array;
  kind : int array;
  expected : bytes array;  (** the oracle's reply frame *)
  answered : int array;  (** entries the oracle's reply covers *)
}

(* [pool_per_kind] requests of each kind in a seed-shuffled order, with
   the replies the Store.query / count-scan oracle gives. *)
let make_pool ~seed store =
  let entries = Array.of_list (Store.entries store) in
  let n = Array.length entries in
  let st = Random.State.make [| seed; 0x5e7e |] in
  let size = pool_per_kind * Array.length kinds in
  let kind = Array.init size (fun i -> i mod Array.length kinds) in
  for i = size - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = kind.(i) in
    kind.(i) <- kind.(j);
    kind.(j) <- t
  done;
  (* the min_visibility thresholds cycle through 1..vantages, so every
     seed asks for the same mix of answer sizes *)
  let visibility = ref 0 in
  let reqs =
    Array.map
      (fun k ->
        let e = entries.(Random.State.int st n) in
        let open Collect.Query in
        match k with
        | 0 -> Proto.Query (empty |> prefix e.Collect.Correlator.x_prefix)
        | 1 -> Proto.Query (empty |> prefix e.Collect.Correlator.x_prefix |> covered)
        | 2 ->
          Proto.Count
            (empty |> origin (Asn.Set.min_elt e.Collect.Correlator.x_origins))
        | 3 ->
          incr visibility;
          Proto.Query (empty |> min_visibility (1 + (!visibility mod vantages)))
        | _ -> Proto.Count empty)
      kind
  in
  let all = Store.entries store in
  let memo = Hashtbl.create 64 in
  let oracle req =
    let key = Bytes.to_string (Proto.encode_request req) in
    match Hashtbl.find_opt memo key with
    | Some r -> r
    | None ->
      let r =
        match req with
        | Proto.Query q ->
          let es = Store.query store q in
          ( Proto.encode_response
              (Proto.Entries
                 { vantage_count = List.length (Store.vantages store); entries = es }),
            List.length es )
        | Proto.Count q ->
          let c = List.length (List.filter (Collect.Query.matches q) all) in
          (Proto.encode_response (Proto.Count_is c), c)
        | _ -> assert false
      in
      Hashtbl.add memo key r;
      r
  in
  let answers = Array.map oracle reqs in
  { reqs; kind; expected = Array.map fst answers; answered = Array.map snd answers }

(* -- set-up ------------------------------------------------------------------ *)

type inputs = {
  params : Srv.params;
  batches : Stream.Source.batch array;
  streams : (string * Stream.Monitor.event array) list;
  ref_store : bytes;  (** the jobs=1 store every collect job must equal *)
  store : Store.t;
  frames : day_frames array;
  pool : pool;
}

let setup ~seed ~replicas =
  let params = { Srv.default_params with seed = archive_seed seed } in
  let batches = Stream.Source.archive_batches ~annotate params in
  let streams =
    Collect.Vantage.replay ~coverage ~vantages ~seed:(vantage_seed seed) batches
  in
  let ref_store =
    Store.encode
      (Store.of_correlation
         (Collect.Correlator.of_result (Collect.Mesh.run ~jobs:1 config streams)))
  in
  let store = Store.decode ref_store in
  let frames = encode_frames ~replicas batches in
  { params; batches; streams; ref_store; store; frames; pool = make_pool ~seed store }

(* -- what the phases measure ---------------------------------------------------- *)

(* Samples accumulate over the phases of a run. *)
type acc = {
  collect_t : T.Samples.t;  (** one per collect job *)
  mutable collect_words : float;  (** allocated by the collect jobs *)
  mutable observations : int;  (** per-vantage events a collect job merges *)
  mutable dedup : float;
  mutable entries : int;
  mutable store_bytes : int;
  ingest_t : T.Samples.t;  (** one per ingest job *)
  mutable ingest_words : float;
  mutable ingest_events : int;
  mutable ck_bytes : int;
  query_lat : T.Samples.t;  (** one per request *)
  query_rates : T.Samples.t;  (** replies per second, one per window *)
  mutable query_words : float;
}

let new_acc () =
  {
    collect_t = T.Samples.create ();
    collect_words = 0.0;
    observations = 0;
    dedup = 0.0;
    entries = 0;
    store_bytes = 0;
    ingest_t = T.Samples.create ();
    ingest_words = 0.0;
    ingest_events = 0;
    ck_bytes = 0;
    query_lat = T.Samples.create ();
    query_rates = T.Samples.create ();
    query_words = 0.0;
  }

(* Words allocated so far by every domain, joined ones included (unlike
   Gc.minor_words, which reads the calling domain only). *)
let allocated () =
  let g = Gc.quick_stat () in
  g.minor_words +. g.major_words -. g.promoted_words

let kb words = words *. float_of_int (Sys.word_size / 8) /. 1024.0

let top_heap_mb () =
  float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. 1048576.0

(* -- collect: archive streams -> store bytes ---------------------------------- *)

let collect_job ~jobs streams =
  let r = T.span "mesh.run" (fun () -> Collect.Mesh.run ~jobs config streams) in
  let c = T.span "correlator.correlate" (fun () -> Collect.Correlator.of_result r) in
  let s = T.span "store.build" (fun () -> Store.of_correlation c) in
  (T.span "store.encode" (fun () -> Store.encode s), r, c)

let collect_pass ~continue acc inputs =
  let observations =
    List.fold_left (fun a (_, evs) -> a + Array.length evs) 0 inputs.streams
  in
  let k = ref 0 in
  while continue !k do
    let w0 = allocated () and t0 = T.now () in
    let bytes, r, c =
      T.span ~id:(T.Samples.length acc.collect_t) "collect.job" (fun () ->
          collect_job ~jobs inputs.streams)
    in
    T.Samples.add acc.collect_t (T.now () -. t0);
    acc.collect_words <- acc.collect_words +. (allocated () -. w0);
    check (Bytes.equal bytes inputs.ref_store) "collect: store bytes differ from the jobs=1 reference";
    let back = T.span "store.decode" (fun () -> Store.decode bytes) in
    check (Bytes.equal (Store.encode back) bytes) "collect: store does not decode back to itself";
    acc.observations <- observations;
    acc.dedup <- float_of_int r.Collect.Mesh.r_duplicates /. float_of_int observations;
    acc.entries <- List.length c.Collect.Correlator.c_entries;
    acc.store_bytes <- Bytes.length bytes;
    incr k
  done

(* -- ingest: frames -> monitor -> checkpoint ------------------------------------ *)

(* [label] suffixes the span names, so that a replay at another job count
   is kept apart from the jobs = nproc spans. *)
let ingest_job ?(label = "") ~jobs frames =
  let sharded = Stream.Sharded.create ~jobs config in
  Array.iter
    (fun d ->
      let n = Array.length d.d_pos in
      let msgs =
        T.span ("wire.decode" ^ label) (fun () ->
            Array.init n (fun i -> Bgp.Wire.decode_sub d.d_buf ~pos:d.d_pos.(i) ~len:d.d_len.(i)))
      in
      let events =
        T.span ("source.of_wire" ^ label) (fun () ->
            Array.concat
              (Array.to_list
                 (Array.mapi
                    (fun i m -> Stream.Source.of_wire ~time:d.d_time ~peer:d.d_peer.(i) m)
                    msgs)))
      in
      let w0 = if !T.enabled && label <> "" then (Gc.quick_stat ()).minor_words else 0.0 in
      T.span ("sharded.ingest_batch" ^ label) (fun () ->
          Stream.Sharded.ingest_batch ~day_end:true sharded ~time:d.d_time events);
      if !T.enabled then
        if label <> "" then begin
          traced_words_jobs1 := !traced_words_jobs1 +. ((Gc.quick_stat ()).minor_words -. w0);
          traced_events_jobs1 := !traced_events_jobs1 + Array.length events
        end
        else begin
          traced_msgs := !traced_msgs + n;
          traced_events := !traced_events + Array.length events
        end)
    frames;
  let snap = T.span ("sharded.snapshot" ^ label) (fun () -> Stream.Sharded.snapshot sharded) in
  (snap, T.span ("checkpoint.encode" ^ label) (fun () -> Stream.Checkpoint.encode snap))

(* The oracle: the same events fed to a jobs=1 monitor without the wire. *)
let reference_render ~replicas batches =
  let sharded = Stream.Sharded.create ~jobs:1 config in
  Array.iter
    (fun (b : Stream.Source.batch) ->
      let events =
        Array.concat (List.init replicas (fun r -> Array.map (replicate r) b.events))
      in
      Stream.Sharded.ingest_batch ~day_end:true sharded ~time:b.time events)
    batches;
  Stream.Report.render (Stream.Sharded.snapshot sharded)

let ingest_pass ~continue ~reference acc frames =
  let k = ref 0 in
  while continue !k do
    let w0 = allocated () and t0 = T.now () in
    (* the snapshot is dropped once rendered, before the checkpoint is
       decoded, so the two never share the heap *)
    let rendered, ck =
      let snap, ck =
        T.span ~id:(T.Samples.length acc.ingest_t) "ingest.job" (fun () -> ingest_job ~jobs frames)
      in
      T.Samples.add acc.ingest_t (T.now () -. t0);
      acc.ingest_words <- acc.ingest_words +. (allocated () -. w0);
      (Stream.Report.render snap, ck)
    in
    check (String.equal rendered reference)
      "ingest: report over decoded frames differs from the unencoded feed";
    let back = T.span "checkpoint.decode" (fun () -> Stream.Checkpoint.decode ck) in
    check
      (String.equal (Stream.Report.render back) reference)
      "ingest: checkpoint does not decode back to the snapshot";
    check (Bytes.equal (Stream.Checkpoint.encode back) ck)
      "ingest: checkpoint bytes change over a decode-encode round trip";
    acc.ingest_events <- frame_count frames;
    acc.ck_bytes <- Bytes.length ck;
    incr k
  done

(* -- serve: closed-loop clients ----------------------------------------------- *)

(* A client over the direct in-process transport that keeps the last
   reply frame, so replies are compared with the oracle byte for byte. *)
let capturing_client server =
  let last = ref Bytes.empty in
  let base = Serve.Transport.of_server server in
  let transport =
    {
      base with
      Serve.Transport.request =
        (fun ~arrival ~session frame ->
          let reply = base.Serve.Transport.request ~arrival ~session frame in
          last := reply;
          reply);
    }
  in
  (Client.connect_via transport, last)

(* One client's closed loop: the next request goes out only after the
   reply arrived.  The latency window is the Client.call alone; the
   comparison with the oracle happens after it closes.  Returns each
   request's latency and the time its reply arrived. *)
let client_loop ~server ~pool ~first ~continue =
  let client, last = capturing_client server in
  let lat = T.Samples.create () and arrived = T.Samples.create () in
  let size = Array.length pool.reqs in
  let k = ref 0 in
  while continue !k do
    let i = (first + !k) mod size in
    let t0 = T.now () in
    let ok =
      T.span ~id:((first * 1_000_000) + !k) "serve.request" (fun () ->
          match T.span "client.call" (fun () -> Client.call client pool.reqs.(i)) with
          | Proto.Rejected _ -> false
          | _ -> true
          | exception Client.Failed _ -> false)
    in
    let t1 = T.now () in
    T.Samples.add lat (t1 -. t0);
    T.Samples.add arrived t1;
    let good = ok && Bytes.equal !last pool.expected.(i) in
    check good (if good then "" else "serve: reply differs from the oracle for " ^ kinds.(pool.kind.(i)));
    incr k
  done;
  ignore (Atomic.fetch_and_add retries (Client.retries client));
  Client.close client;
  (lat, arrived)

(* [clients] closed loops, one per domain (the first on the calling one),
   each starting at its own place in the request pool. *)
let query_pass ~server ~clients ~continue acc inputs =
  let size = Array.length inputs.pool.reqs in
  let first = (T.Samples.length acc.query_lat * 7919) mod size in
  let loop c () =
    client_loop ~server ~pool:inputs.pool ~first:((first + (c * size / clients)) mod size) ~continue
  in
  let w0 = allocated () and t0 = T.now () in
  let others = List.init (clients - 1) (fun c -> Domain.spawn (loop (c + 1))) in
  let mine = loop 0 () in
  let loops = mine :: List.map Domain.join others in
  acc.query_words <- acc.query_words +. (allocated () -. w0);
  List.iter (fun (lat, _) -> T.Samples.append acc.query_lat lat) loops;
  (* replies per second in each whole window of the pass *)
  let windows = int_of_float ((T.now () -. t0) /. rate_window_s) in
  let counts = Array.make windows 0 in
  List.iter
    (fun (_, arrived) ->
      Array.iter
        (fun t ->
          let w = int_of_float ((t -. t0) /. rate_window_s) in
          if w < windows then counts.(w) <- counts.(w) + 1)
        (T.Samples.to_array arrived))
    loops;
  Array.iter (fun c -> T.Samples.add acc.query_rates (float_of_int c /. rate_window_s)) counts

(* -- tail: day batches through Server.tail, alert polls ------------------------ *)

let subscriptions ~seed =
  [
    Proto.Subscribe Collect.Query.(empty |> since 0);
    Proto.Subscribe
      Collect.Query.(
        empty
        |> prefix (Prefix.make (Ipv4.of_octets (1 + (abs seed mod 20)) 0 0 0) 8)
        |> covered);
  ]

let subscribe server ~seed =
  List.map
    (fun req ->
      let c = Client.connect server in
      (match Client.call c req with
      | Proto.Subscribed _ -> ()
      | r -> failwith ("subscribe: " ^ Proto.render_response r));
      c)
    (subscriptions ~seed)

let render_alerts responses = List.map Proto.render_response responses

(* The oracle: the same tail over the set-up's batches, untimed. *)
let reference_alerts ~seed ~batches inputs =
  let server = Serve.Server.create ~store:inputs.store () in
  let subs = subscribe server ~seed in
  let source = Stream.Source.of_batches (Array.sub inputs.batches 0 batches) in
  Array.init batches (fun _ ->
      ignore (Serve.Server.tail ~max_batches:1 server source);
      List.map (fun c -> render_alerts (Client.poll c)) subs)

(* The traced run's tail: the server, its two subscribers and the
   archive source, consumed a round of batches at a time. *)
type tail = {
  server : Serve.Server.t;
  subs : Client.t list;
  archive : Stream.Source.t;
  source : Stream.Source.t;  (** [archive] behind a timed Source.of_seq *)
  mutable next : int;  (** index of the next batch *)
  alert : T.Samples.t;  (** per (batch, subscriber): tail start -> alerts drained *)
  mutable got : (int * Proto.response list list) list;
}

(* Batch 0, the first day's full table, is ingested untimed as a warm-up. *)
let tail_open ~seed inputs =
  let server = Serve.Server.create ~store:inputs.store () in
  let archive = Stream.Source.of_archive ~annotate inputs.params in
  let source =
    Stream.Source.of_seq
      (Seq.of_dispenser (fun () ->
           T.span "source.next" (fun () ->
               let b = Stream.Source.next archive in
               Option.iter
                 (fun (b : Stream.Source.batch) ->
                   ignore (Atomic.fetch_and_add source_events (Array.length b.events)))
                 b;
               b)))
  in
  let subs = subscribe server ~seed in
  ignore (Serve.Server.tail ~max_batches:1 server source);
  {
    server;
    subs;
    archive;
    source;
    next = 1;
    alert = T.Samples.create ();
    got = [ (0, List.map Client.poll subs) ];
  }

(* Tail the next [batches] day batches, one after another: each batch is
   tailed once the previous one's alerts are drained. *)
let tail_run tl ~batches =
  for _ = 1 to batches do
    let i = tl.next in
    let began = T.now () in
    let alerts =
      T.span ~id:i "tail.batch" (fun () ->
          let n = T.span "server.tail" (fun () -> Serve.Server.tail ~max_batches:1 tl.server tl.source) in
          check (n = 1) "tail: a day batch was not ingested";
          List.map
            (fun c ->
              let alerts = T.span "client.poll" (fun () -> Client.poll c) in
              T.Samples.add tl.alert (T.now () -. began);
              alerts)
            tl.subs)
    in
    tl.got <- (i, alerts) :: tl.got;
    tl.next <- i + 1
  done

let tail_close tl ~reference =
  check (Serve.Server.health tl.server = Serve.Server.Serving) "tail: server degraded";
  retire tl.server;
  List.iter Client.close tl.subs;
  Stream.Source.close tl.archive;
  List.iter
    (fun (i, per_sub) ->
      List.iter2
        (fun responses expected ->
          ignore (Atomic.fetch_and_add alerts_drained (List.length responses));
          check (render_alerts responses = expected)
            (Printf.sprintf "tail: alerts of batch %d differ from the reference tail" i))
        per_sub reference.(i))
    (List.rev tl.got)

(* -- metrics ---------------------------------------------------------------- *)

(* A metric that is not [gated] is printed in the table but left out of
   the JSON result, so no bound applies to it. *)
let metrics : (string * float * string * string * bool) list ref = ref []

let report ?(note = "") ?(gated = true) name value unit =
  metrics := (name, value, unit, note, gated) :: !metrics

let sample_note xs =
  let n = Array.length xs in
  match T.supported_tail n with
  | Some p -> Printf.sprintf "n=%d; p%g has >=10 samples beyond it" n p
  | None -> Printf.sprintf "n=%d" n

let emit ~correct =
  (* zero on a correct run, so not gated: the result's [attempted] and
     [failed] fields carry it *)
  report "failed_share" ~gated:false
    (float_of_int (Atomic.get failed) /. float_of_int (max 1 (Atomic.get attempted)))
    "share"
    ~note:(Printf.sprintf "%d failed of %d checked operations" (Atomic.get failed) (Atomic.get attempted));
  let ms = List.rev !metrics in
  say "";
  say "%-42s %16s  %-8s %s" "metric" "value" "unit" "note";
  List.iter
    (fun (n, v, u, note, gated) ->
      say "%-42s %16.6g  %-8s %s%s" n v u (if gated then "" else "(not gated) ") note)
    ms;
  (* A metric with no samples, or a division by zero, is a broken run:
     it must not reach the result as a number a bound would accept. *)
  let broken = List.filter (fun (_, v, _, _, gated) -> gated && not (Float.is_finite v)) ms in
  if broken <> [] then begin
    List.iter (fun (n, v, _, _, _) -> Printf.eprintf "perfbench: metric %s is %g\n" n v) broken;
    exit 1
  end;
  let fields =
    List.filter_map
      (fun (n, v, u, _, gated) ->
        if gated then Some (Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" n v u) else None)
      ms
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct (Atomic.get attempted) (Atomic.get failed) (String.concat ", " fields)

(* -- workloads --------------------------------------------------------------- *)

type workload = Collect_mesh | Ingest_firehose | Serve_mix

let workloads =
  [ ("collect-mesh", Collect_mesh); ("ingest-firehose", Ingest_firehose); ("serve-mix", Serve_mix) ]

let times n k = k < n

(* A run does [setup_reps] set-ups, one warm-up of the workload's own
   phase, then the own phase alone for [--seconds].  The traced run
   instead alternates [traced_pairs] untraced and traced slices of the own
   phase, then runs one traced small round of every phase and the tail,
   so that every layer metric exists on every workload. *)
let setup_reps = 3
let warmup_s = 0.5
let traced_pairs = 2
let small_collect_jobs = 1
let small_ingest_jobs = 2
let small_queries = 125
let small_tail_batches = 25

(* The archive prefix the traced run tails: batch 0, then one small
   round of batches. *)
let tail_total = 1 + small_tail_batches

type run = {
  workload : workload;
  acc : acc;
  server : Serve.Server.t;  (** serves the closed-loop phases *)
  ingest_reference : string;
}

(* The workload's own phase, until [used] (the seconds it has run so
   far) reaches [until]. *)
let own_slice run ~used ~until inputs =
  let acc = run.acc in
  let t0 = T.now () in
  let continue _ = !used +. (T.now () -. t0) < until in
  (match run.workload with
  | Collect_mesh -> collect_pass ~continue acc inputs
  | Ingest_firehose -> ingest_pass ~continue ~reference:run.ingest_reference acc inputs.frames
  | Serve_mix -> query_pass ~server:run.server ~clients ~continue acc inputs);
  used := !used +. (T.now () -. t0)

(* The other workloads' phases, small and unloaded, and the tail. *)
let small_round run tail inputs =
  let acc = run.acc and w = run.workload in
  if w <> Collect_mesh then collect_pass ~continue:(times small_collect_jobs) acc inputs;
  if w <> Ingest_firehose then
    ingest_pass ~continue:(times small_ingest_jobs) ~reference:run.ingest_reference acc inputs.frames;
  if w <> Serve_mix then
    query_pass ~server:run.server ~clients:1 ~continue:(times small_queries) acc inputs;
  tail_run tail ~batches:small_tail_batches

let op_span = function
  | Collect_mesh -> "collect.job"
  | Ingest_firehose -> "ingest.job"
  | Serve_mix -> "serve.request"

let op_times run =
  T.Samples.to_array
    (match run.workload with
    | Collect_mesh -> run.acc.collect_t
    | Ingest_firehose -> run.acc.ingest_t
    | Serve_mix -> run.acc.query_lat)

(* Every workload reports the same end-to-end metrics, each read on its
   own operation: a collect job, an ingest job, or one request. *)
let end_to_end ~setup_times run =
  let acc = run.acc in
  report "setup_s" (T.median setup_times) "s"
    ~note:(Printf.sprintf "median of %d set-ups" (Array.length setup_times));
  let ops = op_times run in
  let n = Array.length ops in
  (* what an operation is, the items it carries, the time they took and
     the words the operations allocated *)
  let rate items item =
    let busy = T.sum ops in
    (float_of_int items /. busy, Printf.sprintf "%d %s in %.2f s" items item busy)
  in
  let what, (items_per_s, note), words =
    match run.workload with
    | Collect_mesh ->
      ("collect job", rate (acc.observations * n) "observations", acc.collect_words)
    | Ingest_firehose -> ("ingest job", rate (acc.ingest_events * n) "events", acc.ingest_words)
    | Serve_mix ->
      let rates = T.Samples.to_array acc.query_rates in
      ( Printf.sprintf "request, %d clients" clients,
        ( T.median rates,
          Printf.sprintf "queries; median of %d windows of %g s" (Array.length rates) rate_window_s ),
        acc.query_words )
  in
  report "op_p50_ms" (1e3 *. T.median ops) "ms" ~note:(what ^ "; " ^ sample_note ops);
  (match T.supported_tail n with
  | Some p when p > 50.0 ->
    report "op_tail_ms" ~gated:false (1e3 *. T.percentile p ops) "ms"
      ~note:(Printf.sprintf "p%g; %s" p (sample_note ops))
  | _ -> ());
  report "items_per_s" items_per_s "1/s" ~note;
  report "alloc_kb_per_op" (kb words /. float_of_int n) "kB"
    ~note:"Gc.quick_stat words allocated, all domains";
  report "top_heap_mb" ~gated:false (top_heap_mb ()) "MB" ~note:"Gc.quick_stat top heap"

(* -- the traced run's layer metrics ---------------------------------------------- *)

let layer_probes inputs =
  (* Exec.Pool: the cost of a map over two empty tasks at jobs = nproc *)
  for _ = 1 to 200 do
    T.span "pool.map" (fun () -> ignore (Exec.Pool.map ~jobs:nproc Fun.id [| 0; 1 |]))
  done;
  for _ = 1 to 3 do
    ignore (T.span "mesh.merge_streams" (fun () -> Collect.Mesh.merge_streams inputs.streams))
  done;
  (* the single-domain firehose baseline *)
  ignore (ingest_job ~label:".jobs1" ~jobs:1 inputs.frames);
  (* direct calls into Store, Proto and Server, per query kind *)
  let server = Serve.Server.create ~store:inputs.store () in
  let session = Serve.Server.open_session server in
  let pool = inputs.pool in
  for _ = 1 to 2 do
    Array.iteri
      (fun i req ->
        let k = kinds.(pool.kind.(i)) in
        let q = match req with Proto.Query q | Proto.Count q -> q | _ -> assert false in
        ignore (T.span ("store.query." ^ k) (fun () -> Store.query inputs.store q));
        let frame =
          T.span ("proto.codec." ^ k) (fun () ->
              let frame = Proto.encode_request req in
              ignore (Proto.decode_response pool.expected.(i));
              frame)
        in
        let reply = T.span ("server.handle." ^ k) (fun () -> Serve.Server.handle server ~session frame) in
        check (Bytes.equal reply pool.expected.(i)) ("server.handle differs from the oracle for " ^ k))
      pool.reqs
  done;
  retire server

let per_layer run ~tail ~inputs ~untraced ~windows spans =
  let acc = run.acc in
  let selfs = T.self_times spans in
  let durs name =
    Array.of_list (List.filter_map (fun s -> if s.T.name = name then Some (T.duration s) else None) spans)
  in
  let self name =
    Array.of_list (List.filter_map (fun (s, x) -> if s.T.name = name then Some x else None) selfs)
  in
  let per n xs = if n = 0 then nan else 1e9 *. T.sum xs /. float_of_int n in
  let ms xs = 1e3 *. T.median xs and us xs = 1e6 *. T.median xs in
  let p99 scale xs = scale *. T.percentile 99.0 xs in
  let source_next = durs "source.next" in
  report "source.next_ms.p50" (ms source_next) "ms" ~note:(sample_note source_next);
  report "source.next_ms.p99" (p99 1e3 source_next) "ms";
  report "source.events" (float_of_int (Atomic.get source_events)) "count";
  report "source.of_wire_ns_per_msg" (per !traced_msgs (durs "source.of_wire")) "ns";
  report "wire.decode_ns_per_msg" (per !traced_msgs (durs "wire.decode")) "ns";
  report "sharded.ingest_ns_per_event" (per !traced_events (durs "sharded.ingest_batch")) "ns"
    ~note:(Printf.sprintf "jobs=%d" jobs);
  report "sharded.ingest_ns_per_event.jobs1"
    (per !traced_events_jobs1 (durs "sharded.ingest_batch.jobs1"))
    "ns";
  report "sharded.minor_words_per_event.jobs1"
    (!traced_words_jobs1 /. float_of_int (max 1 !traced_events_jobs1))
    "words" ~note:"Gc.quick_stat minor_words, all domains";
  report "sharded.pool_batches"
    (float_of_int
       (Array.fold_left
          (fun n d -> if Array.length d.d_pos >= Stream.Sharded.parallel_threshold then n + 1 else n)
          0 inputs.frames))
    "count"
    ~note:(Printf.sprintf "day batches >= parallel_threshold (%d)" Stream.Sharded.parallel_threshold);
  report "sharded.snapshot_ms" (ms (durs "sharded.snapshot")) "ms";
  report "checkpoint.encode_ms" (ms (durs "checkpoint.encode")) "ms";
  report "checkpoint.decode_ms" (ms (durs "checkpoint.decode")) "ms";
  report "checkpoint.bytes" (float_of_int acc.ck_bytes) "bytes";
  report "pool.map_us" (us (durs "pool.map")) "us" ~note:(Printf.sprintf "jobs=%d, 2 empty tasks" nproc);
  report "mesh.merge_streams_ms" (ms (durs "mesh.merge_streams")) "ms";
  report "mesh.run_ms" (ms (durs "mesh.run")) "ms";
  report "mesh.dedup_ratio" acc.dedup "ratio" ~note:"duplicates / observations";
  report "correlator.correlate_ms" (ms (durs "correlator.correlate")) "ms";
  report "correlator.entries" (float_of_int acc.entries) "count";
  report "store.build_ms" (ms (durs "store.build")) "ms";
  report "store.encode_ms" (ms (durs "store.encode")) "ms";
  report "store.decode_ms" (ms (durs "store.decode")) "ms";
  report "store.bytes" (float_of_int acc.store_bytes) "bytes";
  let pool = inputs.pool in
  let of_kind k f =
    let xs = ref [] in
    Array.iteri (fun i kind -> if kind = k then xs := f i :: !xs) pool.kind;
    T.mean (Array.of_list !xs)
  in
  Array.iteri
    (fun k name ->
      let q = durs ("store.query." ^ name) in
      report (Printf.sprintf "store.query_us.%s.p50" name) (us q) "us" ~note:(sample_note q);
      report (Printf.sprintf "store.query_us.%s.p99" name) (p99 1e6 q) "us";
      report ("store.hit_ratio." ^ name)
        (of_kind k (fun i -> float_of_int pool.answered.(i) /. float_of_int (Store.count inputs.store)))
        "ratio" ~note:"entries answered / entries stored";
      report ("proto.codec_us." ^ name) (us (durs ("proto.codec." ^ name))) "us"
        ~note:"request encode + response decode";
      report ("proto.response_bytes." ^ name)
        (of_kind k (fun i -> float_of_int (Bytes.length pool.expected.(i))))
        "bytes";
      let h = durs ("server.handle." ^ name) in
      report (Printf.sprintf "server.handle_us.%s.p50" name) (us h) "us" ~note:(sample_note h);
      report (Printf.sprintf "server.handle_us.%s.p99" name) (p99 1e6 h) "us")
    kinds;
  let tail_self = self "server.tail" in
  report "server.tail_ms.p50" (ms tail_self) "ms" ~note:"self time, source.next subtracted";
  report "server.tail_ms.p99" (p99 1e3 tail_self) "ms" ~note:(sample_note tail_self);
  report "server.alerts" (float_of_int (Atomic.get alerts_drained)) "count";
  report "server.shed" (float_of_int (Atomic.get shed)) "count";
  report "server.timeouts" (float_of_int (Atomic.get timeouts)) "count";
  report "client.poll_us.p99" (p99 1e6 (durs "client.poll")) "us";
  let alert = T.Samples.to_array tail.alert in
  report "tail.alert_ms.p50" (ms alert) "ms"
    ~note:("Server.tail start -> a subscriber's alerts drained; " ^ sample_note alert);
  report "tail.alert_ms.p99" (p99 1e3 alert) "ms";
  report "gc.top_heap_mb" (top_heap_mb ()) "MB" ~note:"Gc.quick_stat top heap";
  report "client.retries" (float_of_int (Atomic.get retries)) "count";
  (* tracing overhead, and how much of each operation the layer spans cover *)
  let ops =
    List.filter
      (fun (s, _) ->
        s.T.name = op_span run.workload
        && List.exists (fun (t0, t1) -> s.T.start >= t0 && s.T.stop <= t1) windows)
      selfs
  in
  let covered = Array.of_list (List.map (fun (s, self) -> T.duration s -. self) ops) in
  let traced = Array.of_list (List.map (fun (s, _) -> T.duration s) ops) in
  report "trace.overhead_share" ((T.mean traced /. T.mean untraced) -. 1.0) "ratio"
    ~note:"mean traced op / mean untraced op - 1";
  report "trace.layer_sum_share" (T.mean covered /. T.mean untraced) "ratio"
    ~note:"layer self times summed per op / untraced op time"

(* -- main ------------------------------------------------------------------- *)

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat " | " (List.map fst workloads));
      ("--seed", Arg.Set_int seed, " workload seed (0 = the repository defaults)");
      ("--seconds", Arg.Set_float seconds, " how long the workload's own phase measures");
      ("--trace", Arg.Set_int trace, " 1 = traced run reporting the per-layer metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload NAME --seed N --seconds S --trace 0|1";
  let name = !workload and seed = !seed and seconds = !seconds in
  let workload =
    match List.assoc_opt name workloads with
    | Some w -> w
    | None ->
      prerr_endline ("perfbench: unknown workload " ^ name);
      exit 2
  in
  let traced = !trace = 1 in
  let replicas = if workload = Ingest_firehose then firehose_replicas else 1 in
  say "perfbench: workload=%s seed=%d seconds=%g trace=%d nproc=%d jobs=%d" name seed seconds
    !trace nproc jobs;
  say "archive seed 0x%Lx, vantage seed 0x%Lx, %d vantages at coverage %.2f, firehose replicas %d"
    (archive_seed seed) (vantage_seed seed) vantages coverage replicas;
  let set_up () =
    Gc.full_major ();
    let t0 = T.now () in
    let inputs = setup ~seed ~replicas in
    (inputs, T.now () -. t0)
  in
  let setup_times = Array.make (if traced then 1 else setup_reps) 0.0 in
  let inputs = ref None in
  Array.iteri
    (fun r _ ->
      inputs := None;
      let fresh, took = set_up () in
      inputs := Some fresh;
      setup_times.(r) <- took)
    setup_times;
  let inputs = Option.get !inputs in
  say "set-up: %d day batches, %d archive events, %d store entries, %d firehose frames"
    (Array.length inputs.batches)
    (Array.fold_left (fun a (b : Stream.Source.batch) -> a + Array.length b.events) 0 inputs.batches)
    (Store.count inputs.store) (frame_count inputs.frames);
  let run =
    {
      workload;
      acc = new_acc ();
      server = Serve.Server.create ~store:inputs.store ();
      ingest_reference = reference_render ~replicas inputs.batches;
    }
  in
  if not traced then begin
    (* one untimed warm-up, then finish the major GC work that set-up
       and warm-up left behind, so that the timed phase does not pay it *)
    own_slice { run with acc = new_acc () } ~used:(ref 0.0) ~until:warmup_s inputs;
    Gc.full_major ();
    own_slice run ~used:(ref 0.0) ~until:seconds inputs;
    retire run.server;
    end_to_end ~setup_times run
  end
  else begin
    let tail_reference = reference_alerts ~seed ~batches:tail_total inputs in
    let tail = tail_open ~seed inputs in
    Gc.full_major ();
    (* the own phase alternates untraced and traced slices, each kind
       getting half of [--seconds]; the difference is the overhead *)
    let slice = seconds /. float_of_int (2 * traced_pairs) in
    let plain = ref 0.0 and traced = ref 0.0 in
    let untraced = ref [] and windows = ref [] in
    for r = 1 to traced_pairs do
      let until = slice *. float_of_int r in
      let before = Array.length (op_times run) in
      own_slice run ~used:plain ~until inputs;
      let ops = op_times run in
      untraced := Array.sub ops before (Array.length ops - before) :: !untraced;
      T.enabled := true;
      let t0 = T.now () in
      own_slice run ~used:traced ~until inputs;
      windows := (t0, T.now ()) :: !windows;
      T.enabled := false
    done;
    T.enabled := true;
    small_round run tail inputs;
    layer_probes inputs;
    tail_close tail ~reference:tail_reference;
    retire run.server;
    T.enabled := false;
    let spans = T.all_spans () in
    (try Sys.mkdir "perfbench/out" 0o755 with Sys_error _ -> ());
    let path = Printf.sprintf "perfbench/out/spans-%s-%d.jsonl" name seed in
    T.write_jsonl path spans;
    say "%d spans written to %s" (List.length spans) path;
    per_layer run ~tail ~inputs ~untraced:(Array.concat !untraced) ~windows:!windows spans
  end;
  emit ~correct:(Atomic.get failed = 0)
