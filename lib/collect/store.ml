open Net

(* One flat, immutable representation.  Entry [i] (its id) is the [i]-th
   entry in canonical order; every index below maps to ids, and the
   entry's binary image is kept so that neither [encode] nor a served
   [Entries] frame re-encodes an entry. *)
type t = {
  roster : string list; (* sorted, deduped *)
  entries : Correlator.entry array; (* canonical order *)
  images : bytes; (* every entry's write_entry image, back to back *)
  offsets : int array; (* n + 1 bounds: image i is [offsets.(i), offsets.(i + 1)) *)
  ranges : (int * int) Prefix_trie.t; (* prefix -> its ids [lo, hi) *)
  origins : int array; (* every origin AS number, ascending *)
  origin_bounds : int array; (* origins.(k)'s ids: origin_ids.[bounds.(k), bounds.(k + 1)) *)
  origin_ids : int array; (* per origin, the ids whose origin set holds it, ascending *)
}

exception Corrupt of string

let magic = "MOASSTOR"
let version = 1

(* canonical order: (network, length) — the trie fold order — then
   (start time, sequence) within a prefix *)
let compare_entry (a : Correlator.entry) (b : Correlator.entry) =
  let c = Prefix.compare a.Correlator.x_prefix b.Correlator.x_prefix in
  if c <> 0 then c
  else
    let c = Int.compare a.Correlator.x_started b.Correlator.x_started in
    if c <> 0 then c else Int.compare a.Correlator.x_seq b.Correlator.x_seq

(* Sort packed (AS lsl 32 lor id) keys by AS, stably: two counting
   passes, one per octet of the 16-bit AS number. *)
let sort_by_as keyed =
  let pass shift src dst =
    let starts = Array.make 257 0 in
    Array.iter
      (fun k ->
        let b = (k lsr shift) land 0xff in
        starts.(b + 1) <- starts.(b + 1) + 1)
      src;
    for b = 1 to 256 do
      starts.(b) <- starts.(b) + starts.(b - 1)
    done;
    Array.iter
      (fun k ->
        let b = (k lsr shift) land 0xff in
        dst.(starts.(b)) <- k;
        starts.(b) <- starts.(b) + 1)
      src
  in
  let tmp = Array.make (Array.length keyed) 0 in
  pass 32 keyed tmp;
  pass 40 tmp keyed

(* The origin index as three flat arrays: the (AS, id) pairs packed into
   ints in id order, sorted stably by AS so the ids stay ascending, then
   one pass to find where each AS starts. *)
let origin_index entries =
  let keyed =
    Array.make
      (Array.fold_left
         (fun m e -> m + Asn.Set.cardinal e.Correlator.x_origins)
         0 entries)
      0
  in
  let k = ref 0 in
  Array.iteri
    (fun i e ->
      Asn.Set.iter
        (fun a ->
          keyed.(!k) <- (Asn.to_int a lsl 32) lor i;
          incr k)
        e.Correlator.x_origins)
    entries;
  sort_by_as keyed;
  let starts_as j = j = 0 || keyed.(j) lsr 32 <> keyed.(j - 1) lsr 32 in
  let distinct = ref 0 in
  Array.iteri (fun j _ -> if starts_as j then incr distinct) keyed;
  let origins = Array.make !distinct 0 in
  let bounds = Array.make (!distinct + 1) (Array.length keyed) in
  let d = ref 0 in
  Array.iteri
    (fun j key ->
      if starts_as j then begin
        origins.(!d) <- key lsr 32;
        bounds.(!d) <- j;
        incr d
      end)
    keyed;
  (origins, bounds, Array.map (fun key -> key land 0xFFFFFFFF) keyed)

let index ~roster entries images offsets =
  let n = Array.length entries in
  let rec ranges lo trie =
    if lo = n then trie
    else
      let p = entries.(lo).Correlator.x_prefix in
      let hi = ref (lo + 1) in
      while !hi < n && Prefix.equal entries.(!hi).Correlator.x_prefix p do
        incr hi
      done;
      ranges !hi (Prefix_trie.add p (lo, !hi) trie)
  in
  let origins, origin_bounds, origin_ids = origin_index entries in
  {
    roster = List.sort_uniq String.compare roster;
    entries;
    images;
    offsets;
    ranges = ranges 0 Prefix_trie.empty;
    origins;
    origin_bounds;
    origin_ids;
  }

let empty ~vantages = index ~roster:vantages [||] Bytes.empty [| 0 |]

let of_correlation (c : Correlator.t) =
  let sorted = Array.of_list c.Correlator.c_entries in
  Array.stable_sort compare_entry sorted;
  (* of entries with one (prefix, start, sequence) key, the last wins *)
  let n = ref 0 in
  Array.iter
    (fun e ->
      if !n > 0 && compare_entry sorted.(!n - 1) e = 0 then sorted.(!n - 1) <- e
      else begin
        sorted.(!n) <- e;
        incr n
      end)
    sorted;
  let entries = Array.sub sorted 0 !n in
  (* an image takes about 90 octets: size the buffer to grow rarely *)
  let buf = Buffer.create (128 * (!n + 1)) in
  let offsets = Array.make (!n + 1) 0 in
  Array.iteri
    (fun i e ->
      Correlator.write_entry buf e;
      offsets.(i + 1) <- Buffer.length buf)
    entries;
  index ~roster:c.Correlator.c_vantages entries (Buffer.to_bytes buf) offsets

let vantages t = t.roster
let count t = Array.length t.entries
let entries t = Array.to_list t.entries

(* ------------------------------------------------------------------ *)
(* Queries — one typed representation, Collect.Query, shared with the
   CLI --query flag and the Serve.Proto wire message.  The prefix or
   origin clause picks the candidate ids; Query.matches decides. *)

type query = Query.t

(* ids of the entries on [p], or on [p] and its more-specifics: in
   canonical order those form one contiguous block *)
let prefix_range t q p =
  if Query.wants_covered q then
    List.fold_left
      (fun (lo, hi) (_, (l, h)) -> (min lo l, max hi h))
      (max_int, 0)
      (Prefix_trie.covered p t.ranges)
  else Option.value (Prefix_trie.find_opt p t.ranges) ~default:(0, 0)

(* [origin_ids] slice of the entries whose origin set holds [a] *)
let origin_slice t a =
  let a = Asn.to_int a in
  let rec first_at_least lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if t.origins.(mid) < a then first_at_least (mid + 1) hi
      else first_at_least lo mid
  in
  let k = first_at_least 0 (Array.length t.origins) in
  if k < Array.length t.origins && t.origins.(k) = a then
    (t.origin_bounds.(k), t.origin_bounds.(k + 1))
  else (0, 0)

(* ids [lo, hi), or the ids at origin_ids.[lo, hi) *)
type candidates = Range of int * int | Origin of int * int

(* The ids that can match [q] — the prefix clause's id range or the
   origin clause's ids, whichever is shorter, else every id — and
   whether every one of them does match because no other clause is left
   to test. *)
let candidates t q =
  let lo, hi =
    match Query.target q with
    | Some p -> prefix_range t q p
    | None -> (0, Array.length t.entries)
  in
  let filters =
    Option.(
      Query.(
        is_some (since_bound q)
        || is_some (until_bound q)
        || is_some (visibility_floor q)
        || is_some (bucket_filter q)))
  in
  match Query.origin_filter q with
  | None -> (Range (lo, hi), not filters)
  | Some a ->
    let olo, ohi = origin_slice t a in
    if ohi - olo < hi - lo then
      (Origin (olo, ohi), not (filters || Option.is_some (Query.target q)))
    else (Range (lo, hi), false)

(* Fold [f] over the ids of the matching entries, in ascending order. *)
let fold_candidates t q (cands, exact) f acc =
  let visit acc i =
    if exact || Query.matches q t.entries.(i) then f acc i else acc
  in
  match cands with
  | Range (lo, hi) ->
    let rec go acc i = if i >= hi then acc else go (visit acc i) (i + 1) in
    go acc lo
  | Origin (lo, hi) ->
    let rec go acc j =
      if j >= hi then acc else go (visit acc t.origin_ids.(j)) (j + 1)
    in
    go acc lo

let fold_matches t q f acc = fold_candidates t q (candidates t q) f acc
let query t q = List.rev (fold_matches t q (fun acc i -> t.entries.(i) :: acc) [])

let count_matches t q =
  match candidates t q with
  | (Range (lo, hi) | Origin (lo, hi)), true -> max 0 (hi - lo)
  | c -> fold_candidates t q c (fun n _ -> n + 1) 0

let image_length t i = t.offsets.(i + 1) - t.offsets.(i)

let query_images t q =
  let ids = fold_matches t q (fun ids i -> i :: ids) [] in
  let len = List.fold_left (fun len i -> len + image_length t i) 0 ids in
  let blit dst pos =
    (* [ids] is descending: fill from the end *)
    ignore
      (List.fold_left
         (fun stop i ->
           let start = stop - image_length t i in
           Bytes.blit t.images t.offsets.(i) dst start (image_length t i);
           start)
         (pos + len) ids)
  in
  (List.length ids, len, blit)

(* ------------------------------------------------------------------ *)
(* Binary encoding — Net.Codec discipline, magic MOASSTOR *)

let encode t =
  let head = Buffer.create 64 in
  Buffer.add_string head magic;
  Codec.put_u8 head version;
  Codec.put_list head Codec.put_string t.roster;
  Codec.put_u32 head (count t);
  let h = Buffer.length head in
  let out = Bytes.create (h + Bytes.length t.images) in
  Buffer.blit head 0 out 0 h;
  Bytes.blit t.images 0 out h (Bytes.length t.images);
  out

let decode data =
  let c = Codec.cursor ~fail:(fun m -> Corrupt m) data in
  if Bytes.length data < String.length magic then
    raise (Corrupt "not an episode store");
  Codec.expect_magic c magic;
  (match Codec.take_u8 c with
  | v when v = version -> ()
  | v -> raise (Corrupt (Printf.sprintf "unsupported store version %d" v)));
  let roster = Codec.take_list c Codec.take_string in
  let items =
    Codec.take_list c (fun c ->
        let pos = Codec.pos c in
        (pos, Correlator.read_entry c))
    |> Array.of_list
  in
  let stop = Codec.pos c in
  Codec.expect_end c;
  let entries = Array.map snd items in
  Array.iteri
    (fun i e ->
      if i > 0 then
        let prev = entries.(i - 1) in
        let c = compare_entry prev e in
        if c = 0 then
          raise
            (Corrupt
               (Printf.sprintf "duplicate entry %s#%d at %d"
                  (Prefix.to_string e.Correlator.x_prefix)
                  e.Correlator.x_seq e.Correlator.x_started))
        else if c > 0 then
          raise (Corrupt (Printf.sprintf "entry %d out of canonical order" i)))
    entries;
  (* the images are the input's own octets, sliced rather than re-encoded *)
  let start = if Array.length items = 0 then stop else fst items.(0) in
  let offsets =
    Array.init (Array.length items + 1) (fun i ->
        (if i < Array.length items then fst items.(i) else stop) - start)
  in
  index ~roster entries (Bytes.sub data start (stop - start)) offsets

let write_file path t =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_bytes oc (encode t))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let n = in_channel_length ic in
      let data = Bytes.create n in
      really_input ic data 0 n;
      decode data)

(* ------------------------------------------------------------------ *)

let render t =
  let buf = Buffer.create 1024 in
  let n = List.length t.roster in
  Buffer.add_string buf "=== Episode store ===\n";
  Buffer.add_string buf
    (Printf.sprintf "vantages: %d (%s)\n" n (String.concat " " t.roster));
  Buffer.add_string buf (Printf.sprintf "entries: %d\n" (count t));
  Array.iter
    (fun (e : Correlator.entry) ->
      Buffer.add_string buf (Correlator.render_entry ~vantage_count:n e);
      Buffer.add_char buf '\n')
    t.entries;
  Buffer.contents buf
