(* Wall clock, summary statistics and the in-memory span recorder of the
   benchmark's traced run.

   Time is read from the monotonic clock (CLOCK_MONOTONIC, nanoseconds),
   never from [Sys.time], which is process CPU time.  Spans are recorded
   only around the benchmark's own calls into the pipeline's public
   functions: name, start, stop, the enclosing span and the id of the
   operation (job, request or batch) they belong to.  Each domain keeps
   its own buffer; the buffers are merged when the run ends. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* -- statistics --------------------------------------------------------- *)

(* Mutil.Stats over arrays, except that an empty sample gives nan rather
   than 0: a metric with no samples then fails the run instead of reading
   as a perfect time. *)
let of_samples f xs = if Array.length xs = 0 then nan else f (Array.to_list xs)
let median = of_samples Mutil.Stats.median
let percentile p = of_samples (Mutil.Stats.percentile p)
let mean = of_samples Mutil.Stats.mean
let sum xs = Array.fold_left ( +. ) 0.0 xs

(* The highest of the usual tail percentiles that still has at least ten
   samples beyond it: what a sample of [n] timings can support. *)
let supported_tail n =
  List.find_opt
    (fun p -> float_of_int n *. (100.0 -. p) /. 100.0 >= 10.0)
    [ 99.9; 99.0; 98.0; 95.0; 90.0; 75.0; 50.0 ]

(* A growable float buffer, one per producer. *)
module Samples = struct
  type t = { mutable data : float array; mutable len : int }

  let create () = { data = Array.make 1024 0.0; len = 0 }

  let add t x =
    if t.len = Array.length t.data then begin
      let bigger = Array.make (2 * t.len) 0.0 in
      Array.blit t.data 0 bigger 0 t.len;
      t.data <- bigger
    end;
    t.data.(t.len) <- x;
    t.len <- t.len + 1

  let length t = t.len
  let append t u = for i = 0 to u.len - 1 do add t u.data.(i) done
  let to_array t = Array.sub t.data 0 t.len
end

(* -- spans -------------------------------------------------------------- *)

type span = {
  idx : int;  (** unique across domains *)
  name : string;
  id : int;  (** operation id, shared by every span of one operation *)
  parent : int;  (** [idx] of the enclosing span, -1 at top level *)
  start : float;
  stop : float;
}

type buffer = { mutable spans : span list; mutable stack : (int * int) list }

let enabled = ref false
let next_idx = Atomic.make 0
let buffers = ref []
let buffers_lock = Mutex.create ()

let key =
  Domain.DLS.new_key (fun () ->
      let b = { spans = []; stack = [] } in
      Mutex.protect buffers_lock (fun () -> buffers := b :: !buffers);
      b)

(* [span ?id name f] runs [f], recording a span around it when tracing is
   on.  A span opened without [id] inherits its parent's operation id. *)
let span ?id name f =
  if not !enabled then f ()
  else begin
    let b = Domain.DLS.get key in
    let idx = Atomic.fetch_and_add next_idx 1 in
    let parent, inherited =
      match b.stack with (p, pid) :: _ -> (p, pid) | [] -> (-1, idx)
    in
    let id = Option.value id ~default:inherited in
    b.stack <- (idx, id) :: b.stack;
    let start = now () in
    Fun.protect
      ~finally:(fun () ->
        let stop = now () in
        b.stack <- List.tl b.stack;
        b.spans <- { idx; name; id; parent; start; stop } :: b.spans)
      f
  end

let all_spans () =
  Mutex.protect buffers_lock (fun () -> List.concat_map (fun b -> b.spans) !buffers)

let duration s = s.stop -. s.start

(* Self time of every span: its duration minus the part its direct
   children cover (children of one span run on its domain, one after
   another, so their durations add up without overlap). *)
let self_times spans =
  let covered = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace covered s.parent
          (duration s +. Option.value ~default:0.0 (Hashtbl.find_opt covered s.parent)))
    spans;
  List.map
    (fun s ->
      (s, duration s -. Option.value ~default:0.0 (Hashtbl.find_opt covered s.idx)))
    spans

let write_jsonl path spans =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"idx\":%d,\"name\":%S,\"id\":%d,\"parent\":%d,\"start_s\":%.9f,\"stop_s\":%.9f}\n"
        s.idx s.name s.id s.parent s.start s.stop)
    (List.sort (fun a b -> compare a.idx b.idx) spans);
  close_out oc
