(* Allocation-free reader tracking. Refcounts live in an int array
   indexed by object id (grown on demand; object ids are dense and
   non-negative). Each CPU's open section keeps the oids it holds in an
   int stack, newest on top, so a section with holds allocates nothing. *)
type held = { mutable oids : int array; mutable n : int }

type t = {
  rcu : Gp.t;
  mutable refs : int array; (* oid -> total refcount *)
  per_cpu_held : held array; (* oids held by the open section on a CPU *)
  mutable violation_log : string list; (* reversed; first K kept *)
  mutable logged : int;
  mutable dropped : int;
  probe : Sim.Probe.t;
}

(* Bound the log so a badly mutated run inside a long fuzz session cannot
   grow memory without bound; the count of what was cut is kept. *)
let max_logged_violations = 64

let create rcu =
  {
    rcu;
    refs = Array.make 512 0;
    per_cpu_held =
      Array.init (Sim.Machine.nr_cpus (Gp.machine rcu)) (fun _ ->
          { oids = Array.make 16 0; n = 0 });
    violation_log = [];
    logged = 0;
    dropped = 0;
    probe = Sim.Engine.probe (Sim.Machine.engine (Gp.machine rcu));
  }

let rcu t = t.rcu

let record_violation t msg =
  if t.logged < max_logged_violations then begin
    t.violation_log <- msg :: t.violation_log;
    t.logged <- t.logged + 1
  end
  else t.dropped <- t.dropped + 1

let violations t = List.rev t.violation_log
let dropped_violations t = t.dropped

let refcount t ~oid =
  if oid >= 0 && oid < Array.length t.refs then Array.unsafe_get t.refs oid
  else 0

let incr_ref t oid =
  if oid < 0 then invalid_arg "Readers.hold: negative object id";
  let n = Array.length t.refs in
  if oid >= n then begin
    let a = Array.make (max (oid + 1) (2 * n)) 0 in
    Array.blit t.refs 0 a 0 n;
    t.refs <- a
  end;
  t.refs.(oid) <- t.refs.(oid) + 1

(* Only oids a section holds are released, so [oid] is in range. *)
let decr_ref t oid = t.refs.(oid) <- t.refs.(oid) - 1

let enter t cpu = Gp.read_lock t.rcu cpu

let exit t (cpu : Sim.Machine.cpu) =
  (* A section cannot carry references out: drop everything it holds. *)
  let h = t.per_cpu_held.(cpu.id) in
  for i = h.n - 1 downto 0 do
    decr_ref t (Array.unsafe_get h.oids i)
  done;
  h.n <- 0;
  Gp.read_unlock t.rcu cpu

let hold t (cpu : Sim.Machine.cpu) ~oid =
  Sim.Probe.emit t.probe Reader_hold ~cpu:cpu.id ~a:oid ~b:0;
  if cpu.rcu_nesting = 0 then
    record_violation t
      (Printf.sprintf "cpu%d held a reference to object %d outside a \
                       read-side critical section" cpu.id oid)
  else begin
    incr_ref t oid;
    let h = t.per_cpu_held.(cpu.id) in
    if h.n = Array.length h.oids then begin
      let a = Array.make (2 * h.n) 0 in
      Array.blit h.oids 0 a 0 h.n;
      h.oids <- a
    end;
    h.oids.(h.n) <- oid;
    h.n <- h.n + 1
  end

let rec newest_index (oids : int array) (oid : int) i =
  if i < 0 || Array.unsafe_get oids i = oid then i
  else newest_index oids oid (i - 1)

(* Drops the newest hold of [oid], keeping the others in order. *)
let release t (cpu : Sim.Machine.cpu) ~oid =
  let h = t.per_cpu_held.(cpu.id) in
  let i = newest_index h.oids oid (h.n - 1) in
  if i >= 0 then begin
    Array.blit h.oids (i + 1) h.oids i (h.n - 1 - i);
    h.n <- h.n - 1;
    decr_ref t oid
  end
  else
    record_violation t
      (Printf.sprintf "cpu%d released object %d it did not hold" cpu.id oid)

let with_section t cpu f =
  enter t cpu;
  match f () with
  | v ->
      exit t cpu;
      v
  | exception e ->
      exit t cpu;
      raise e

let check_reusable t ~oid ~where =
  let n = refcount t ~oid in
  if n > 0 then
    record_violation t
      (Printf.sprintf
         "%s: object %d reused while %d reader(s) still reference it" where
         oid n)

let watch_reuse t =
  Sim.Probe.subscribe t.probe [ Obj_alloc ] (fun _ ~cpu:_ ~a ~b:_ ->
      check_reusable t ~oid:a ~where:"alloc")
