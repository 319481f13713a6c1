type cpu = {
  id : int;
  node : int;
  mutable pending_ns : int;
  mutable rcu_nesting : int;
  mutable idle : bool;
  mutable stalled : bool;
  mutable ctx_switches : int;
  mutable suppressed_ticks : int;
  mutable idle_work : (unit -> unit) array;
  mutable idle_n : int;
}

type t = {
  engine : Engine.t;
  cpus : cpu array;
  nr_nodes : int;
  tick : int;
  mutable hooks : (cpu -> unit) list;
  mutable started : bool;
}

let create engine ~cpus ?(nodes = 1) ?(tick_ns = 1_000_000) () =
  if cpus <= 0 then invalid_arg "Machine.create: need at least one CPU";
  if nodes <= 0 || nodes > cpus then
    invalid_arg "Machine.create: invalid node count";
  let per_node = (cpus + nodes - 1) / nodes in
  let mk id =
    {
      id;
      node = id / per_node;
      pending_ns = 0;
      rcu_nesting = 0;
      idle = false;
      stalled = false;
      ctx_switches = 0;
      suppressed_ticks = 0;
      idle_work = [||];
      idle_n = 0;
    }
  in
  {
    engine;
    cpus = Array.init cpus mk;
    nr_nodes = nodes;
    tick = tick_ns;
    hooks = [];
    started = false;
  }

let engine t = t.engine
let nr_cpus t = Array.length t.cpus
let nr_nodes t = t.nr_nodes
let cpu t i = t.cpus.(i)
let cpus t = t.cpus
let node_of_cpu t i = t.cpus.(i).node
let tick_ns t = t.tick

let on_context_switch t hook = t.hooks <- hook :: t.hooks

let prof t = Engine.prof t.engine
let emit t edge c = Probe.emit (Engine.probe t.engine) edge ~cpu:c.id ~a:0 ~b:0

let context_switch t c =
  c.ctx_switches <- c.ctx_switches + 1;
  emit t Ctx_switch c;
  List.iter (fun hook -> hook c) t.hooks

let start t =
  if not t.started then begin
    t.started <- true;
    Array.iter
      (fun c ->
        (* Stagger ticks across CPUs to avoid artificial synchrony. *)
        let phase = t.tick + (c.id * t.tick / Array.length t.cpus) in
        Engine.every t.engine ~period:t.tick ~phase (fun () ->
            if c.stalled then c.suppressed_ticks <- c.suppressed_ticks + 1
            else if c.rcu_nesting = 0 then context_switch t c;
            true))
      t.cpus
  end

let consume c ns =
  if ns < 0 then invalid_arg "Machine.consume: negative cost";
  c.pending_ns <- c.pending_ns + ns

let drain c =
  let p = c.pending_ns in
  c.pending_ns <- 0;
  p

let no_work () = ()

(* Runs in submission order. Only called with [c.idle] set, so the work
   cannot queue more behind itself: [submit_idle] runs it at once. *)
let run_idle_work c =
  let n = c.idle_n in
  c.idle_n <- 0;
  for i = 0 to n - 1 do
    let fn = c.idle_work.(i) in
    c.idle_work.(i) <- no_work;
    fn ()
  done

let submit_idle _t c fn =
  if c.idle then fn ()
  else begin
    let cap = Array.length c.idle_work in
    if c.idle_n = cap then begin
      let a = Array.make (max 4 (2 * cap)) no_work in
      Array.blit c.idle_work 0 a 0 cap;
      c.idle_work <- a
    end;
    c.idle_work.(c.idle_n) <- fn;
    c.idle_n <- c.idle_n + 1
  end

let is_idle c = c.idle

let idle_sleep t c ns =
  c.idle <- true;
  emit t Idle_start c;
  run_idle_work c;
  Process.sleep t.engine ns;
  emit t Idle_end c;
  c.idle <- false
