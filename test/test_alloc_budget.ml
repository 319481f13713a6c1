(* Allocation budgets for the simulator's per-event hot paths: minor-heap
   words per operation, measured with [Gc.minor_words] over [iters]
   operations after a warm-up. Each budget sits below what the
   closure-and-option implementations these paths replaced allocated, so
   restoring any of them fails here. *)

open Test_util

let warmup = 1_000
let iters = 100_000

let words_per_op op =
  for _ = 1 to warmup do
    op ()
  done;
  let w0 = Gc.minor_words () in
  for _ = 1 to iters do
    op ()
  done;
  (Gc.minor_words () -. w0) /. float_of_int iters

let check_budget what ~budget words =
  if words > budget then
    Alcotest.failf "%s: %.2f words/op, budget %.1f" what words budget

(* The runtime's continuation block is all a sleep may allocate. *)
let test_sleep () =
  let eng = Sim.Engine.create () in
  let words = ref nan in
  Sim.Process.spawn eng (fun () ->
      words := words_per_op (fun () -> Sim.Process.sleep eng 10));
  Sim.Engine.run eng;
  check_budget "Process.sleep" ~budget:4. !words

(* Two processes hand control back and forth through two conditions.
   One round is two waits and two broadcasts; the budget is per wait:
   the continuation block, nothing per waiter or per broadcast. *)
let test_cond_ping_pong () =
  let eng = Sim.Engine.create () in
  let ping = Sim.Process.Cond.create eng and pong = Sim.Process.Cond.create eng in
  let stop = ref false in
  let words = ref nan in
  Sim.Process.spawn eng (fun () ->
      while not !stop do
        Sim.Process.Cond.wait pong;
        Sim.Process.Cond.broadcast ping
      done);
  Sim.Process.spawn eng (fun () ->
      words :=
        words_per_op (fun () ->
            Sim.Process.Cond.broadcast pong;
            Sim.Process.Cond.wait ping)
        /. 2.;
      stop := true;
      Sim.Process.Cond.broadcast pong);
  Sim.Engine.run eng;
  check_budget "Cond.wait/broadcast" ~budget:4. !words

let test_reader_section () =
  let env = make_env ~cpus:2 () in
  let readers = Rcu.Readers.create env.rcu in
  let c = cpu0 env in
  let words =
    words_per_op (fun () ->
        Rcu.Readers.enter readers c;
        Rcu.Readers.hold readers c ~oid:3;
        Rcu.Readers.hold readers c ~oid:700;
        Rcu.Readers.hold readers c ~oid:3;
        Rcu.Readers.release readers c ~oid:700;
        Rcu.Readers.exit readers c)
  in
  check_budget "Readers enter/hold/release/exit" ~budget:0. words

(* The observation bus costs nothing per emit: not on an edge nobody
   watches, and not on a watched edge whose handler allocates nothing. *)
let test_probe_emit () =
  let p = Sim.Probe.create () in
  let sum = ref 0 in
  Sim.Probe.subscribe p [ Obj_pool ] (fun _ ~cpu:_ ~a ~b:_ -> sum := !sum + a);
  let unwatched =
    words_per_op (fun () -> Sim.Probe.emit p Obj_alloc ~cpu:0 ~a:1 ~b:2)
  in
  check_budget "Probe.emit (unwatched)" ~budget:0. unwatched;
  let watched =
    words_per_op (fun () -> Sim.Probe.emit p Obj_pool ~cpu:0 ~a:1 ~b:2)
  in
  check_budget "Probe.emit (watched)" ~budget:0. watched;
  Alcotest.(check bool) "handler ran" true (!sum > 0)

let setup () =
  let env = make_env ~cpus:2 ~total_pages:16384 () in
  let readers = Rcu.Readers.create env.rcu in
  let backend = Prudence.backend (Prudence.create env.fenv env.rcu) in
  let cache = backend.Slab.Backend.create_cache ~name:"entries" ~obj_size:64 in
  (env, readers, backend, cache)

(* A lookup allocates only its [Some] result (2 words). *)
let test_rculist_lookup () =
  let env, readers, backend, cache = setup () in
  let l = Rcudata.Rculist.create ~backend ~readers ~cache ~name:"l" in
  let c = cpu0 env in
  for k = 0 to 31 do
    assert (Rcudata.Rculist.insert l c ~key:k ~value:k)
  done;
  let words = words_per_op (fun () -> ignore (Rcudata.Rculist.lookup l c ~key:7)) in
  check_budget "Rculist.lookup" ~budget:2. words

let test_rcutree_lookup () =
  let env, readers, backend, cache = setup () in
  let t = Rcudata.Rcutree.create ~backend ~readers ~cache ~name:"t" in
  let c = cpu0 env in
  List.iter
    (fun k -> assert (Rcudata.Rcutree.insert t c ~key:k ~value:k))
    [ 16; 8; 24; 4; 12; 20; 28; 2; 6; 10; 14 ];
  let words = words_per_op (fun () -> ignore (Rcudata.Rcutree.lookup t c ~key:10)) in
  check_budget "Rcutree.lookup" ~budget:2. words

let suite =
  [
    Alcotest.test_case "Process.sleep <= 4 words" `Quick test_sleep;
    Alcotest.test_case "Cond ping-pong <= 4 words/wait" `Quick
      test_cond_ping_pong;
    Alcotest.test_case "reader section 0 words" `Quick test_reader_section;
    Alcotest.test_case "Probe.emit 0 words" `Quick test_probe_emit;
    Alcotest.test_case "Rculist.lookup <= 2 words" `Quick test_rculist_lookup;
    Alcotest.test_case "Rcutree.lookup <= 2 words" `Quick test_rcutree_lookup;
  ]
