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

(* The slab frame's steady-state object moves. An allocation through
   [Backend.alloc] returns its object in a [Some] (2 words); every other
   word here would be an object-cache cons, a freelist cons, a fresh
   slab-list node or a closure rebuilt per call. *)
let slab_backend kind ?config () =
  let env = make_env ~cpus:2 ~total_pages:4096 () in
  let backend =
    match kind with
    | `Slub -> Slab.Slub.backend (Slab.Slub.create env.fenv env.rcu)
    | `Prudence -> Prudence.backend (Prudence.create ?config env.fenv env.rcu)
  in
  let cache = backend.Slab.Backend.create_cache ~name:"budget" ~obj_size:512 in
  (env, backend, cache)

let test_free_alloc_hit kind () =
  let env, backend, cache = slab_backend kind () in
  let c = cpu0 env in
  let obj = ref (Option.get (backend.Slab.Backend.alloc cache c)) in
  let words =
    words_per_op (fun () ->
        backend.Slab.Backend.free cache c !obj;
        obj := Option.get (backend.Slab.Backend.alloc cache c))
  in
  check_budget "free -> alloc hit" ~budget:2. words

(* Defer an object, then allocate with the object cache empty: the
   allocation merges the (already ripe) latent cache and hands the same
   object back. *)
let test_defer_merge_alloc () =
  let config = { Prudence.default_config with unsafe_skip_gp = true } in
  let env, backend, cache = slab_backend `Prudence ~config () in
  let c = cpu0 env in
  let obj = ref (Option.get (backend.Slab.Backend.alloc cache c)) in
  let pc = Slab.Frame.pcpu_for cache c in
  while pc.Slab.Frame.ocache_n > 0 do
    Slab.Frame.hand_to_user cache c (Slab.Frame.pop_ocache_exn pc)
  done;
  let merges () = (Slab.Slab_stats.snapshot cache.Slab.Frame.stats).merges in
  let merges0 = merges () in
  let words =
    words_per_op (fun () ->
        backend.Slab.Backend.free_deferred cache c !obj;
        obj := Option.get (backend.Slab.Backend.alloc cache c))
  in
  Alcotest.(check int) "every allocation merged"
    (warmup + iters) (merges () - merges0);
  check_budget "defer -> merge -> alloc" ~budget:2. words

(* Refill a batch from the node (the slab moves free -> partial) and
   flush it back (partial -> free). The selector's [Some] is the budget. *)
let test_refill_flush () =
  let env = make_env ~cpus:2 ~total_pages:4096 () in
  let cache =
    Slab.Frame.create_cache env.fenv ~name:"budget" ~obj_size:512 ()
  in
  let c = cpu0 env in
  let slab = Option.get (Slab.Frame.grow cache c) in
  let moves = ref 0 in
  let words =
    words_per_op (fun () ->
        let got =
          Slab.Frame.refill_from_node cache c ~want:cache.Slab.Frame.batch
            ~select:Slab.Frame.select_slub
        in
        if slab.Slab.Frame.on_list = Slab.Frame.L_partial then incr moves;
        Slab.Frame.flush_to_node cache c ~count:got;
        if slab.Slab.Frame.on_list = Slab.Frame.L_free then incr moves)
  in
  Alcotest.(check int) "the slab moved twice per cycle"
    (2 * (warmup + iters)) !moves;
  check_budget "refill -> flush" ~budget:2. words

(* Two cookies per round, so each harvest merges two buckets; the
   emptied buckets are reused by the next round's pushes. *)
let test_latq_cycle () =
  let q = Slab.Latq.create () in
  let cookie = ref 0 and sum = ref 0 in
  let add v = sum := !sum + v in
  let words =
    words_per_op (fun () ->
        let c = !cookie in
        cookie := c + 2;
        Slab.Latq.push q ~cookie:(c + 1) 1;
        Slab.Latq.push q ~cookie:c 2;
        Slab.Latq.push q ~cookie:(c + 1) 3;
        ignore (Slab.Latq.harvest q ~completed:(c + 1) ~f:add))
  in
  Alcotest.(check int) "every element harvested" (6 * (warmup + iters)) !sum;
  check_budget "Latq push/harvest" ~budget:0. words

let test_deque () =
  let d = Sim.Deque.create () in
  let words =
    words_per_op (fun () ->
        Sim.Deque.push_back d 1;
        Sim.Deque.push_front d 2;
        Sim.Deque.push_back d 3;
        ignore (Sim.Deque.pop_front_exn d);
        ignore (Sim.Deque.pop_back_exn d);
        ignore (Sim.Deque.pop_back_exn d))
  in
  check_budget "Deque push/pop at both ends" ~budget:0. words

(* Queueing idle work and running it costs nothing beyond the sleep. *)
let test_idle_work () =
  let eng = Sim.Engine.create () in
  let machine = Sim.Machine.create eng ~cpus:1 () in
  let c = Sim.Machine.cpu machine 0 in
  let ran = ref 0 in
  let task () = incr ran in
  let words = ref nan in
  Sim.Process.spawn eng (fun () ->
      words :=
        words_per_op (fun () ->
            Sim.Machine.submit_idle machine c task;
            Sim.Machine.idle_sleep machine c 10));
  Sim.Engine.run eng;
  Alcotest.(check int) "every task ran" (warmup + iters) !ran;
  check_budget "submit_idle + idle_sleep" ~budget:4. !words

let suite =
  [
    Alcotest.test_case "Process.sleep <= 4 words" `Quick test_sleep;
    Alcotest.test_case "Cond ping-pong <= 4 words/wait" `Quick
      test_cond_ping_pong;
    Alcotest.test_case "reader section 0 words" `Quick test_reader_section;
    Alcotest.test_case "Probe.emit 0 words" `Quick test_probe_emit;
    Alcotest.test_case "Rculist.lookup <= 2 words" `Quick test_rculist_lookup;
    Alcotest.test_case "Rcutree.lookup <= 2 words" `Quick test_rcutree_lookup;
    Alcotest.test_case "slub free -> alloc hit <= 2 words" `Quick
      (test_free_alloc_hit `Slub);
    Alcotest.test_case "prudence free -> alloc hit <= 2 words" `Quick
      (test_free_alloc_hit `Prudence);
    Alcotest.test_case "prudence defer -> merge -> alloc <= 2 words" `Quick
      test_defer_merge_alloc;
    Alcotest.test_case "refill -> flush slab move <= 2 words" `Quick
      test_refill_flush;
    Alcotest.test_case "Latq push/harvest 0 words" `Quick test_latq_cycle;
    Alcotest.test_case "Deque both ends 0 words" `Quick test_deque;
    Alcotest.test_case "submit_idle + idle_sleep <= 4 words" `Quick
      test_idle_work;
  ]
