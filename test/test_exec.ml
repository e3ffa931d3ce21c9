(* Tests for Exec.Pool, the deterministic domain pool behind the
   experiment sweeps: order preservation, exception propagation, the
   jobs-count-invariance contract, concurrency, nested calls, failures
   off the calling domain, and end-to-end sweep determinism. *)

module Pool = Exec.Pool

exception Boom of int

let test_map_is_array_map () =
  let input = Array.init 100 (fun i -> i) in
  let f i = (i * i) + 7 in
  List.iter
    (fun jobs ->
      Alcotest.(check (array int))
        (Printf.sprintf "jobs=%d equals Array.map" jobs)
        (Array.map f input)
        (Pool.map ~jobs f input))
    [ 1; 2; 3; 4; 8; 100; 200 ]

let test_map_empty_and_singleton () =
  Alcotest.(check (array int)) "empty" [||] (Pool.map ~jobs:4 succ [||]);
  Alcotest.(check (array int)) "singleton" [| 2 |] (Pool.map ~jobs:4 succ [| 1 |])

let test_map_list () =
  Alcotest.(check (list string))
    "map_list preserves order"
    [ "0"; "1"; "2"; "3"; "4" ]
    (Pool.map_list ~jobs:3 string_of_int [ 0; 1; 2; 3; 4 ])

let test_exception_propagates () =
  List.iter
    (fun jobs ->
      match Pool.map ~jobs (fun i -> if i = 13 then raise (Boom i) else i)
              (Array.init 64 (fun i -> i))
      with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom 13 -> ())
    [ 1; 4 ]

(* Waits (up to a second) until [flag] is set: a task on the calling
   domain uses it to hold back until a task has run on another domain, so
   the other domain is sure to take part. *)
let await flag =
  let t0 = Unix.gettimeofday () in
  while (not (Atomic.get flag)) && Unix.gettimeofday () -. t0 < 1.0 do
    Unix.sleepf 0.0005
  done

let cores = Domain.recommended_domain_count ()

(* [jobs] is the degree of concurrency, also above the core count: [jobs]
   tasks that each wait for all the others at a barrier all get through.
   A deadline keeps a pool that runs fewer at once from hanging the test;
   such a pool fails it instead. *)
let test_jobs_run_together () =
  List.iter
    (fun jobs ->
      let arrived = Atomic.make 0 in
      let meet _ =
        Atomic.incr arrived;
        let t0 = Unix.gettimeofday () in
        while Atomic.get arrived < jobs && Unix.gettimeofday () -. t0 < 5.0 do
          Unix.sleepf 0.0005
        done;
        Atomic.get arrived >= jobs
      in
      Alcotest.(check (array bool))
        (Printf.sprintf "jobs=%d (cores=%d): every task met the others" jobs cores)
        (Array.make jobs true)
        (Pool.map ~jobs meet (Array.make jobs ())))
    [ 2; 4; 8 ]

(* A map inside a task, on the calling domain and on a helper domain. *)
let test_nested_map () =
  let caller = Domain.self () in
  let helper_ran = Atomic.make false in
  let inner i = Array.map (fun j -> (i * 100) + j) (Array.init 5 Fun.id) in
  let nested i =
    if Domain.self () = caller then await helper_ran
    else Atomic.set helper_ran true;
    Pool.map ~jobs:2 (fun j -> (i * 100) + j) (Array.init 5 Fun.id)
  in
  let outer = Array.init 6 Fun.id in
  Alcotest.(check (array (array int)))
    "nested map equals Array.map" (Array.map inner outer)
    (Pool.map ~jobs:2 nested outer);
  Alcotest.(check bool) "a helper ran a nested map" true (Atomic.get helper_ran)

(* In the first map a task raises only off the calling domain. *)
let test_helper_failure () =
  let caller = Domain.self () in
  let input = Array.init 16 Fun.id in
  let helper_ran = Atomic.make false in
  let raise_off_caller i =
    if Domain.self () = caller then begin
      await helper_ran;
      i
    end
    else begin
      Atomic.set helper_ran true;
      raise (Boom i)
    end
  in
  let recording = Printexc.backtrace_status () in
  Printexc.record_backtrace true;
  Fun.protect ~finally:(fun () -> Printexc.record_backtrace recording) (fun () ->
      match Pool.map ~jobs:2 raise_off_caller input with
      | _ -> Alcotest.fail "expected Boom from the helper domain"
      | exception Boom _ ->
        (* the helper's own frames, not just the caller's re-raise *)
        let names =
          match Printexc.backtrace_slots (Printexc.get_raw_backtrace ()) with
          | None -> []
          | Some slots -> List.filter_map Printexc.Slot.name (Array.to_list slots)
        in
        Alcotest.(check bool)
          ("re-raised with the helper's backtrace: " ^ String.concat ", " names)
          true
          (List.exists (fun n -> Testutil.contains n "raise_off_caller") names));
  Alcotest.(check (array int)) "next map equals Array.map"
    (Array.map (fun i -> i * 3) input)
    (Pool.map ~jobs:2 (fun i -> i * 3) input)

let test_jobs_above_cores () =
  let input = Array.init 64 Fun.id in
  let f i = (i * 7) mod 13 in
  List.iter
    (fun jobs ->
      Alcotest.(check (array int))
        (Printf.sprintf "jobs=%d (cores=%d) equals Array.map" jobs cores)
        (Array.map f input) (Pool.map ~jobs f input))
    [ cores + 1; 2 * cores; 8 * cores ]

let test_alternating_jobs () =
  let input = Array.init 37 Fun.id in
  let f i = (i * i) - 3 in
  let expected = Array.map f input in
  for k = 0 to 199 do
    let jobs = [| 1; 2; 3; 8 |].(k mod 4) in
    Alcotest.(check (array int))
      (Printf.sprintf "round %d, jobs=%d" k jobs)
      expected (Pool.map ~jobs f input)
  done

let test_default_jobs_env () =
  let original = Sys.getenv_opt "MOAS_JOBS" in
  let restore () =
    match original with
    | Some v -> Unix.putenv "MOAS_JOBS" v
    | None -> Unix.putenv "MOAS_JOBS" ""
  in
  Fun.protect ~finally:restore @@ fun () ->
  Unix.putenv "MOAS_JOBS" "3";
  Alcotest.(check int) "MOAS_JOBS honoured" 3 (Pool.default_jobs ());
  Unix.putenv "MOAS_JOBS" "not-a-number";
  Alcotest.(check bool) "garbage falls back to a sane count" true
    (Pool.default_jobs () >= 1);
  Unix.putenv "MOAS_JOBS" "0";
  Alcotest.(check bool) "non-positive falls back" true
    (Pool.default_jobs () >= 1)

let prop_map_matches_sequential =
  Testutil.qtest ~count:100 "pool map equals sequential map for any jobs"
    QCheck2.Gen.(pair (int_range 1 9) (list_size (int_range 0 50) int))
    (fun (jobs, xs) ->
      let arr = Array.of_list xs in
      let f x = (x * 31) lxor 5 in
      Pool.map ~jobs f arr = Array.map f arr)

(* the tentpole contract end to end: a whole sweep point — means, standard
   errors, detection rates — is identical whatever the job count *)
let test_sweep_identical_across_jobs () =
  let cfg =
    Experiments.Sweep.config ~origin_selections:2 ~attacker_selections:2
      ~topology:(Topology.Paper_topologies.topology_25 ())
      ~n_origins:1 ~deployment:Moas.Deployment.Full ()
  in
  let sequential = Experiments.Sweep.run ~jobs:1 cfg ~n_attackers_list:[ 2; 4 ] in
  let parallel = Experiments.Sweep.run ~jobs:4 cfg ~n_attackers_list:[ 2; 4 ] in
  Alcotest.(check bool) "points byte-identical at jobs 1 and 4" true
    (sequential = parallel)

let test_robustness_identical_across_jobs () =
  let topology = Topology.Paper_topologies.topology_25 () in
  let a = Experiments.Robustness.partition_study ~runs:3 ~jobs:1 ~topology () in
  let b = Experiments.Robustness.partition_study ~runs:3 ~jobs:4 ~topology () in
  Alcotest.(check bool) "partition points identical at jobs 1 and 4" true
    (a = b)

let () =
  Alcotest.run "exec"
    [
      ( "pool",
        [
          Alcotest.test_case "equals Array.map" `Quick test_map_is_array_map;
          Alcotest.test_case "empty + singleton" `Quick
            test_map_empty_and_singleton;
          Alcotest.test_case "map_list" `Quick test_map_list;
          Alcotest.test_case "exception propagates" `Quick
            test_exception_propagates;
          Alcotest.test_case "MOAS_JOBS default" `Quick test_default_jobs_env;
          Alcotest.test_case "jobs tasks run together" `Quick
            test_jobs_run_together;
          Alcotest.test_case "nested map" `Quick test_nested_map;
          Alcotest.test_case "failure on a helper domain" `Quick
            test_helper_failure;
          Alcotest.test_case "jobs above the core count" `Quick
            test_jobs_above_cores;
          Alcotest.test_case "alternating job counts" `Quick
            test_alternating_jobs;
        ] );
      ("properties", [ prop_map_matches_sequential ]);
      ( "sweeps",
        [
          Alcotest.test_case "sweep invariant in jobs" `Slow
            test_sweep_identical_across_jobs;
          Alcotest.test_case "robustness invariant in jobs" `Slow
            test_robustness_identical_across_jobs;
        ] );
    ]
