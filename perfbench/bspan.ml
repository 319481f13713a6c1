(* Host clock and the benchmark's own spans.

   The library profiler ([Prof]) has a closed span vocabulary covering
   the layers inside the stack. The calls the benchmark itself makes
   into public functions — the wrapped [Slab.Backend.t] closures and the
   [Rcuhash] operations — are timed here instead, with the same
   discipline: a disabled recorder costs one branch, a live one keeps
   dense unboxed accumulators and allocates nothing per call.

   Frames live on per-CPU stacks. A simulated process can suspend inside
   a call (effects hand control back to the engine); a frame whose exit
   runs after other events have executed is counted as [suspended] and
   its time discarded, so one process never bills another's work. *)

external now_ns : unit -> (float[@unboxed])
  = "pb_now_ns" "pb_now_ns_unboxed"
[@@noalloc]

type span =
  | Backend_alloc
  | Backend_free
  | Backend_free_deferred
  | Hash_lookup
  | Hash_update
  | Hash_insert

let all =
  [
    Backend_alloc;
    Backend_free;
    Backend_free_deferred;
    Hash_lookup;
    Hash_update;
    Hash_insert;
  ]

let index = function
  | Backend_alloc -> 0
  | Backend_free -> 1
  | Backend_free_deferred -> 2
  | Hash_lookup -> 3
  | Hash_update -> 4
  | Hash_insert -> 5

let name = function
  | Backend_alloc -> "backend.alloc"
  | Backend_free -> "backend.free"
  | Backend_free_deferred -> "backend.free_deferred"
  | Hash_lookup -> "rcudata.lookup"
  | Hash_update -> "rcudata.update"
  | Hash_insert -> "rcudata.insert"

let nspans = List.length all
let max_depth = 8

type t = {
  live : bool;
  calls : int array;
  incl_ns : Float.Array.t;
  self_words : Float.Array.t;
  (* Self ns by (parent + 1, span); parent -1 is the root. Feeds the
     folded-stack export. *)
  edge_self_ns : Float.Array.t;
  depth : int array;  (** Per CPU. *)
  fr_span : int array;  (** [cpu * max_depth + level]. *)
  fr_exec : int array;
  fr_t0 : Float.Array.t;
  fr_w0 : Float.Array.t;
  fr_child_ns : Float.Array.t;
  fr_child_w : Float.Array.t;
  mutable suspended : int;
  mutable unmatched : int;
  mutable truncated : int;
}

let make ~live ~ncpus =
  let frames = if live then ncpus * max_depth else 0 in
  let fa n = Float.Array.make n 0. in
  {
    live;
    calls = Array.make nspans 0;
    incl_ns = fa nspans;
    self_words = fa nspans;
    edge_self_ns = fa ((nspans + 1) * nspans);
    depth = Array.make (if live then ncpus else 0) 0;
    fr_span = Array.make frames 0;
    fr_exec = Array.make frames 0;
    fr_t0 = fa frames;
    fr_w0 = fa frames;
    fr_child_ns = fa frames;
    fr_child_w = fa frames;
    suspended = 0;
    unmatched = 0;
    truncated = 0;
  }

let null = make ~live:false ~ncpus:0
let create ~ncpus = make ~live:true ~ncpus

let enter t eng ~cpu s =
  if t.live then begin
    let si = index s in
    t.calls.(si) <- t.calls.(si) + 1;
    let d = t.depth.(cpu) in
    if d >= max_depth then t.truncated <- t.truncated + 1
    else begin
      let f = (cpu * max_depth) + d in
      t.fr_span.(f) <- si;
      t.fr_exec.(f) <- Sim.Engine.executed eng;
      Float.Array.set t.fr_child_ns f 0.;
      Float.Array.set t.fr_child_w f 0.;
      Float.Array.set t.fr_w0 f (Gc.minor_words ());
      Float.Array.set t.fr_t0 f (now_ns ())
    end;
    t.depth.(cpu) <- d + 1
  end

let exit t eng ~cpu s =
  if t.live then begin
    let t1 = now_ns () in
    let w1 = Gc.minor_words () in
    let d = t.depth.(cpu) - 1 in
    if d < 0 then t.unmatched <- t.unmatched + 1
    else begin
      t.depth.(cpu) <- d;
      if d < max_depth then begin
        let f = (cpu * max_depth) + d in
        let si = index s in
        if t.fr_span.(f) <> si then begin
          (* Lost pairing: drop this CPU's whole stack. *)
          t.unmatched <- t.unmatched + 1;
          t.depth.(cpu) <- 0
        end
        else if t.fr_exec.(f) <> Sim.Engine.executed eng then
          t.suspended <- t.suspended + 1
        else begin
          let incl = t1 -. Float.Array.get t.fr_t0 f in
          let words = w1 -. Float.Array.get t.fr_w0 f in
          let self = incl -. Float.Array.get t.fr_child_ns f in
          let self_w = words -. Float.Array.get t.fr_child_w f in
          Float.Array.set t.incl_ns si (Float.Array.get t.incl_ns si +. incl);
          Float.Array.set t.self_words si
            (Float.Array.get t.self_words si +. self_w);
          let parent = if d = 0 then 0 else t.fr_span.(f - 1) + 1 in
          let e = (parent * nspans) + si in
          Float.Array.set t.edge_self_ns e
            (Float.Array.get t.edge_self_ns e +. self);
          if d > 0 then begin
            Float.Array.set t.fr_child_ns (f - 1)
              (Float.Array.get t.fr_child_ns (f - 1) +. incl);
            Float.Array.set t.fr_child_w (f - 1)
              (Float.Array.get t.fr_child_w (f - 1) +. words)
          end
        end
      end
    end
  end

let calls t s = t.calls.(index s)
let incl_ns t s = Float.Array.get t.incl_ns (index s)
let self_words t s = Float.Array.get t.self_words (index s)

let self_ns t s =
  let si = index s in
  let acc = ref 0. in
  for parent = 0 to nspans do
    acc := !acc +. Float.Array.get t.edge_self_ns ((parent * nspans) + si)
  done;
  !acc

(* [("parent;span", self ns)] for every edge that saw time. *)
let folded t =
  List.concat_map
    (fun s ->
      let si = index s in
      List.filter_map
        (fun p ->
          let ns = Float.Array.get t.edge_self_ns ((p * nspans) + si) in
          if ns <= 0. then None
          else
            let path =
              if p = 0 then name s
              else name (List.nth all (p - 1)) ^ ";" ^ name s
            in
            Some (path, ns))
        (List.init (nspans + 1) Fun.id))
    all

(* Busy-wait [ns] of host time: the sensitivity check's injected
   slowdown. *)
let spin ns =
  let until = now_ns () +. ns in
  while now_ns () < until do
    ()
  done
