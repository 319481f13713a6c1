(* Feature encoding: a feature is one int with a domain tag in the high
   bits, so the three signal families share one hash-set:

   - domain 0: shadow-heap state transitions, (from_tag * 8 + to_tag);
   - domain 1: per-CPU trace-event adjacency,
     ((cpu * kinds + prev) * kinds + cur);
   - domain 2: engine same-instant run lengths, log2-bucketed.

   Cheap by construction — each observation is an int mix plus one
   hash-set membership test — and entirely observational: none of the
   feeds schedule events or consume RNG draws. *)

let domain_shift = 24
let domain_transition = 0
let domain_adjacency = 1
let domain_runlen = 2

type t = {
  features : (int, unit) Hashtbl.t;
  mutable last_kind : int array; (* per-CPU previous trace kind, -1 = none *)
  mutable last_time : int;
  mutable run_len : int;
}

let create () =
  {
    features = Hashtbl.create 256;
    last_kind = [||];
    last_time = min_int;
    run_len = 0;
  }

let add t f = if not (Hashtbl.mem t.features f) then Hashtbl.add t.features f ()

let note_transition t ~from_tag ~to_tag =
  add t ((domain_transition lsl domain_shift) lor ((from_tag * 8) + to_tag))

let kinds = Trace.Event.kind_count

let note_trace t ~cpu ~kind_index =
  let cpu = cpu + 1 (* -1 = machine-global *) in
  if cpu >= Array.length t.last_kind then begin
    let grown = Array.make (cpu + 8) (-1) in
    Array.blit t.last_kind 0 grown 0 (Array.length t.last_kind);
    t.last_kind <- grown
  end;
  let prev = t.last_kind.(cpu) in
  t.last_kind.(cpu) <- kind_index;
  if prev >= 0 then
    add t
      ((domain_adjacency lsl domain_shift)
      lor ((((cpu * kinds) + prev) * kinds) + kind_index))

let watch_trace t probe =
  Sim.Probe.subscribe probe Trace.Event.kinds (fun kind ~cpu ~a:_ ~b:_ ->
      note_trace t ~cpu ~kind_index:(Trace.Event.index kind))

let bucket n =
  let rec go b n = if n <= 1 then b else go (b + 1) (n lsr 1) in
  go 0 n

let flush_run t =
  if t.run_len > 0 then
    add t ((domain_runlen lsl domain_shift) lor bucket t.run_len)

let note_event t ~time =
  if time = t.last_time then t.run_len <- t.run_len + 1
  else begin
    flush_run t;
    t.last_time <- time;
    t.run_len <- 1
  end

let finish t = flush_run t

let size t = Hashtbl.length t.features

let features t =
  List.sort compare (Hashtbl.fold (fun f () acc -> f :: acc) t.features [])

let absorb ~into src =
  Hashtbl.fold
    (fun f () fresh ->
      if Hashtbl.mem into.features f then fresh
      else begin
        Hashtbl.add into.features f ();
        fresh + 1
      end)
    src.features 0
