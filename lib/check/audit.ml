(* [err] takes the accumulator explicitly so each call site instantiates
   the format type fresh (a closure would be monomorphized by its first
   use). *)
let err errs fmt = Format.kasprintf (fun s -> errs := s :: !errs) fmt

(* Free and allocated blocks must tile [0, total_pages) with naturally
   aligned blocks, and the recounted page totals must match the counters
   the allocator maintains incrementally (split/merge conservation). *)
let buddy b =
  let errs = ref [] in
  let total = Mem.Buddy.total_pages b in
  let tag_free (p, o) = (p, o, true) and tag_used (p, o) = (p, o, false) in
  let blocks =
    List.sort compare
      (List.map tag_free (Mem.Buddy.free_blocks b)
      @ List.map tag_used (Mem.Buddy.allocated_blocks b))
  in
  let expected = ref 0 in
  let free_sum = ref 0 and used_sum = ref 0 in
  List.iter
    (fun (page, order, is_free) ->
      let size = 1 lsl order in
      let where =
        Printf.sprintf "%s block page %d order %d"
          (if is_free then "free" else "allocated")
          page order
      in
      if page land (size - 1) <> 0 then
        err errs "buddy: %s is not naturally aligned" where;
      if page < !expected then
        err errs "buddy: %s overlaps the previous block (expected page %d)" where
          !expected
      else if page > !expected then
        err errs "buddy: pages %d..%d covered by no block (next is %s)" !expected
          (page - 1) where;
      expected := max !expected (page + size);
      if is_free then free_sum := !free_sum + size
      else used_sum := !used_sum + size)
    blocks;
  if !expected <> total then
    err errs "buddy: coverage ends at page %d, but the arena has %d pages"
      !expected total;
  if !free_sum <> Mem.Buddy.free_pages b then
    err errs "buddy: free lists hold %d pages but the counter says %d" !free_sum
      (Mem.Buddy.free_pages b);
  if !used_sum <> Mem.Buddy.used_pages b then
    err errs "buddy: allocated blocks hold %d pages but the counter says %d"
      !used_sum (Mem.Buddy.used_pages b);
  List.rev !errs

let slab ~rcu (cache : Slab.Frame.cache) =
  let errs = ref [] in
  let open Slab.Frame in
  let name = cache.name in
  (* Walk every slab through the node lists it must live on. *)
  let n_slabs = ref 0 and in_flight_sum = ref 0 and slab_latent_sum = ref 0 in
  Array.iter
    (fun (node : node) ->
      let walk tag lst =
        Sim.Dlist.iter
          (fun (s : slab) ->
            incr n_slabs;
            in_flight_sum := !in_flight_sum + s.in_flight;
            slab_latent_sum := !slab_latent_sum + s.latent_n;
            let free_room = Array.length s.free_objs
            and latent_rc = Slab.Latq.length s.latent_objs in
            if s.free_n < 0 || s.free_n > free_room then
              err errs "%s: slab %d freelist has room for %d objects but free_n = %d"
                name s.sid free_room s.free_n;
            if latent_rc <> s.latent_n then
              err errs "%s: slab %d latent list holds %d objects but latent_n = %d"
                name s.sid latent_rc s.latent_n;
            if s.free_n + s.latent_n + s.in_flight <> s.capacity then
              err errs
                "%s: slab %d accounting leak: free %d + latent %d + \
                 in-flight %d <> capacity %d"
                name s.sid s.free_n s.latent_n s.in_flight s.capacity;
            if s.on_list <> tag then
              err errs "%s: slab %d tagged %a but found on the %a list" name s.sid
                pp_list_id s.on_list pp_list_id tag;
            let seen = Hashtbl.create 16 in
            if s.free_n <= free_room then
              iter_free_objs
                (fun (o : objekt) ->
                  if o.parent != s then
                    err errs "%s: object %d on slab %d's freelist has a different \
                         parent" name o.oid s.sid;
                  if o.ostate <> Free_in_slab then
                    err errs "%s: object %d on slab %d's freelist is in state %a"
                      name o.oid s.sid pp_ostate o.ostate;
                  if Hashtbl.mem seen o.oid then
                    err errs "%s: object %d is on slab %d's freelist twice" name
                      o.oid s.sid;
                  Hashtbl.replace seen o.oid ())
                s;
            Slab.Latq.iter
              (fun (o : objekt) ->
                if o.ostate <> In_latent_slab then
                  err errs "%s: object %d on slab %d's latent list is in state %a"
                    name o.oid s.sid pp_ostate o.ostate)
              s.latent_objs)
          lst
      in
      walk L_full node.full;
      walk L_partial node.partial;
      walk L_free node.free_slabs)
    cache.nodes;
  if !n_slabs <> cache.total_slabs then
    err errs "%s: node lists hold %d slabs but total_slabs = %d" name !n_slabs
      cache.total_slabs;
  (* Per-CPU caches. *)
  let ocache_sum = ref 0 and latent_cache_sum = ref 0 in
  Array.iter
    (fun (pc : pcpu) ->
      let room = Array.length pc.ocache in
      if pc.ocache_n < 0 || pc.ocache_n > room then
        err errs "%s: cpu%d object cache has room for %d objects but ocache_n = %d"
          name pc.cpu.Sim.Machine.id room pc.ocache_n;
      ocache_sum := !ocache_sum + pc.ocache_n;
      latent_cache_sum := !latent_cache_sum + Slab.Latq.Fifo.length pc.latent;
      if pc.ocache_n <= room then
        iter_ocache
          (fun (o : objekt) ->
            if o.ostate <> In_object_cache then
              err errs "%s: object %d in cpu%d's object cache is in state %a"
                name o.oid pc.cpu.Sim.Machine.id pp_ostate o.ostate)
          pc;
      Slab.Latq.Fifo.iter
        (fun (o : objekt) ->
          if o.ostate <> In_latent_cache then
            err errs "%s: object %d in cpu%d's latent cache is in state %a" name
              o.oid pc.cpu.Sim.Machine.id pp_ostate o.ostate)
        pc.latent)
    cache.pcpus;
  (* In-flight objects are: held by mutators, in object caches, in latent
     caches — plus (baseline only) defer-freed objects whose [call_rcu]
     callback has not released them yet. That surplus is the extended-
     lifetime window and every such object has a pending callback, so the
     RCU backlog bounds it. *)
  let expected_in_flight =
    cache.live_objs + !ocache_sum + !latent_cache_sum
  in
  let surplus = !in_flight_sum - expected_in_flight in
  if surplus < 0 then
    err errs
      "%s: slabs report %d in-flight objects, fewer than live %d + ocache \
       %d + latent-cache %d = %d"
      name !in_flight_sum cache.live_objs !ocache_sum !latent_cache_sum
      expected_in_flight;
  if surplus > Rcu.pending_callbacks rcu then
    err errs
      "%s: %d in-flight objects are neither live nor cached, but only %d \
       RCU callbacks are pending — objects leaked out of accounting"
      name surplus
      (Rcu.pending_callbacks rcu);
  if cache.latent_count <> !slab_latent_sum + !latent_cache_sum then
    err errs
      "%s: latent_count = %d but latent slabs hold %d + latent caches %d"
      name cache.latent_count !slab_latent_sum !latent_cache_sum;
  (* Statistics identities. *)
  let s = Slab.Slab_stats.snapshot cache.stats in
  if s.Slab.Slab_stats.hits + s.Slab.Slab_stats.misses
     <> s.Slab.Slab_stats.allocs
  then
    err errs "%s: stats: hits %d + misses %d <> allocs %d" name
      s.Slab.Slab_stats.hits s.Slab.Slab_stats.misses
      s.Slab.Slab_stats.allocs;
  if s.Slab.Slab_stats.grows - s.Slab.Slab_stats.shrinks
     <> cache.total_slabs
  then
    err errs "%s: stats: grows %d - shrinks %d <> total_slabs %d" name
      s.Slab.Slab_stats.grows s.Slab.Slab_stats.shrinks cache.total_slabs;
  List.rev !errs

(* Every deferred object's cookie must be a reclamation token the SMR
   state could actually have issued: positive, and no newer than the
   token a defer right now would receive (tokens are issued by
   [smr.defer] and that sequence is monotone). *)
let latent ~smr (cache : Slab.Frame.cache) =
  let errs = ref [] in
  let open Slab.Frame in
  let horizon = smr.Slab.Smr.snapshot () in
  let check_cookie where (o : objekt) =
    if o.gp_cookie <= 0 then
      err errs "%s: deferred object %d in %s has cookie %d (never stamped?)"
        cache.name o.oid where o.gp_cookie
    else if o.gp_cookie > horizon then
      err errs
        "%s: deferred object %d in %s waits for token %d, newer than any \
         the %s state could have issued (snapshot %d)"
        cache.name o.oid where o.gp_cookie smr.Slab.Smr.scheme horizon
  in
  Array.iter
    (fun (pc : pcpu) ->
      Slab.Latq.Fifo.iter (check_cookie "a latent cache") pc.latent)
    cache.pcpus;
  Array.iter
    (fun (node : node) ->
      let walk lst =
        Sim.Dlist.iter
          (fun (s : slab) ->
            Slab.Latq.iter (check_cookie "a latent slab") s.latent_objs)
          lst
      in
      walk node.full;
      walk node.partial;
      walk node.free_slabs)
    cache.nodes;
  List.rev !errs

let env (e : Workloads.Env.t) =
  let acc = ref (buddy e.Workloads.Env.buddy) in
  e.Workloads.Env.backend.Slab.Backend.iter_caches (fun c ->
      acc :=
        !acc
        @ slab ~rcu:e.Workloads.Env.rcu c
        @ latent ~smr:e.Workloads.Env.smr c);
  !acc
