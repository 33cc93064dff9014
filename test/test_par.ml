(* Unit tests for the lib/par domain pool: exact index coverage under
   every chunking, exception propagation through the barrier, nested
   calls degrading to sequential instead of deadlocking, and the
   environment-driven default domain count. *)

let with_pool ~domains f =
  let pool = Par.create ~domains () in
  Fun.protect ~finally:(fun () -> Par.shutdown pool) (fun () -> f pool)

(* Every index in [0, n) is visited exactly once, whatever the chunk
   size — the atomic work counter must neither skip nor repeat. *)
let test_iter_covers_each_index_once () =
  with_pool ~domains:4 (fun pool ->
      List.iter
        (fun n ->
          List.iter
            (fun chunk ->
              let hits = Array.init n (fun _ -> Atomic.make 0) in
              (match chunk with
              | None -> Par.parallel_iter pool (fun i -> Atomic.incr hits.(i)) n
              | Some chunk -> Par.parallel_iter ~chunk pool (fun i -> Atomic.incr hits.(i)) n);
              Array.iteri
                (fun i c ->
                  Alcotest.(check int)
                    (Printf.sprintf "n=%d chunk=%s i=%d" n
                       (match chunk with None -> "auto" | Some c -> string_of_int c)
                       i)
                    1 (Atomic.get c))
                hits)
            [ None; Some 1; Some 3; Some (n + 10) ])
        [ 0; 1; 2; 7; 64; 100; 1000 ])

let test_map_preserves_order () =
  with_pool ~domains:4 (fun pool ->
      let xs = Array.init 257 (fun i -> i * i) in
      Alcotest.(check (array int)) "map order" (Array.map (fun x -> 2 * x) xs)
        (Par.parallel_map pool (fun x -> 2 * x) xs);
      Alcotest.(check (array int)) "empty map" [||] (Par.parallel_map pool (fun x -> x) [||]))

(* A worker exception must surface at the barrier on the caller, and
   the pool must stay usable afterwards. *)
let test_exception_propagates () =
  with_pool ~domains:4 (fun pool ->
      Alcotest.check_raises "raises Failure" (Failure "boom") (fun () ->
          Par.parallel_iter pool (fun i -> if i = 37 then failwith "boom") 100);
      Alcotest.(check int) "pool survives a failed round" 4950
        (Array.fold_left ( + ) 0 (Par.parallel_map pool Fun.id (Array.init 100 Fun.id))))

(* Nested parallel calls — both from helper domains (in_worker) and
   re-entrantly from the caller's own chunk (in_round) — must fall back
   to sequential execution instead of deadlocking on busy mailboxes. *)
let test_nested_falls_back_sequentially () =
  with_pool ~domains:3 (fun pool ->
      let out =
        Par.parallel_map pool
          (fun i ->
            let acc = Atomic.make 0 in
            Par.parallel_iter pool (fun j -> ignore (Atomic.fetch_and_add acc (i * j))) 50;
            Atomic.get acc)
          (Array.init 8 Fun.id)
      in
      Alcotest.(check (array int))
        "nested results"
        (Array.init 8 (fun i -> i * 1225))
        out)

let test_single_domain_pool_is_sequential () =
  with_pool ~domains:1 (fun pool ->
      Alcotest.(check int) "one domain" 1 (Par.domains pool);
      let seen = ref [] in
      Par.parallel_iter pool (fun i -> seen := i :: !seen) 5;
      Alcotest.(check (list int)) "in order (sequential path)" [ 4; 3; 2; 1; 0 ] !seen)

let test_shutdown_idempotent () =
  let pool = Par.create ~domains:3 () in
  Par.shutdown pool;
  Par.shutdown pool;
  (* a dead pool still computes, just sequentially *)
  Par.parallel_iter pool (fun _ -> ()) 10;
  Alcotest.(check pass) "no deadlock after double shutdown" () ()

let test_default_domains_env () =
  Unix.putenv "BGR_DOMAINS" "3";
  Alcotest.(check int) "BGR_DOMAINS honoured" 3 (Par.default_domains ());
  Unix.putenv "BGR_DOMAINS" "not-a-number";
  Alcotest.(check int) "garbage falls back to cores" (Par.available_domains ())
    (Par.default_domains ());
  Unix.putenv "BGR_DOMAINS" "0";
  Alcotest.(check int) "non-positive falls back to cores" (Par.available_domains ())
    (Par.default_domains ());
  Unix.putenv "BGR_DOMAINS" ""

let suite =
  [ Alcotest.test_case "iter covers each index exactly once" `Quick
      test_iter_covers_each_index_once;
    Alcotest.test_case "map preserves order" `Quick test_map_preserves_order;
    Alcotest.test_case "worker exception propagates" `Quick test_exception_propagates;
    Alcotest.test_case "nested calls fall back sequentially" `Quick
      test_nested_falls_back_sequentially;
    Alcotest.test_case "domains:1 pool is sequential" `Quick
      test_single_domain_pool_is_sequential;
    Alcotest.test_case "shutdown is idempotent" `Quick test_shutdown_idempotent;
    Alcotest.test_case "BGR_DOMAINS drives the default" `Quick test_default_domains_env ]

let () = Alcotest.run "par" [ ("par", suite) ]
