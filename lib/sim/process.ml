open Effect.Deep

(* Processes are allocation-free in steady state. A suspension performs
   one constant effect; its argument (the sleep's engine and delay, or the
   condition's wait queue) travels in module-level cells that the handler
   reads synchronously: [effc] and the handler function it returns run
   inside [perform], before any other code can overwrite the cells. The
   cells hold only ints, or a queue that is reset once read, so they never
   keep a finished simulation reachable. Each process owns one
   parked-continuation slot, one resume closure shared by sleep and
   condition wakeups, and one preallocated [Some] handler per branch, so
   a sleep allocates only the runtime's continuation block. *)

(* Growable FIFO of waiter resume closures. *)
type waitq = { mutable slots : (unit -> unit) array; mutable len : int }

type cond = { engine : Engine.t; q : waitq }

type _ Effect.t += Sleep : unit Effect.t | Wait : unit Effect.t | Park : unit Effect.t

let sleep_engine = ref (-1) (* [Engine.id] of the engine the sleep names *)
let sleep_ns = ref 0
let no_waiters = { slots = [||]; len = 0 }
let wait_target = ref no_waiters

let sleep eng ns =
  sleep_engine := Engine.id eng;
  sleep_ns := ns;
  Effect.perform Sleep

let yield eng = sleep eng 0

(* A continuation that is never resumed: the initial content of every
   process's parked-continuation slot. *)
let unresumed : (unit, unit) continuation =
  let slot : (unit, unit) continuation option ref = ref None in
  match_with Effect.perform Park
    {
      retc = ignore;
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) :
             ((a, unit) continuation -> unit) option ->
          match eff with
          | Park -> Some (fun k -> slot := Some k)
          | _ -> None);
    };
  Option.get !slot

module Cond = struct
  type t = cond

  let create engine = { engine; q = { slots = [||]; len = 0 } }

  let push q resume =
    if q.len = Array.length q.slots then begin
      let a = Array.make (max 4 (2 * q.len)) ignore in
      Array.blit q.slots 0 a 0 q.len;
      q.slots <- a
    end;
    q.slots.(q.len) <- resume;
    q.len <- q.len + 1

  let wait c =
    Engine.incr_waiters c.engine;
    wait_target := c.q;
    Effect.perform Wait

  (* Scheduling runs no process code, so no waiter can join the queue
     while it is being drained. *)
  let broadcast c =
    let q = c.q in
    for i = 0 to q.len - 1 do
      Engine.decr_waiters c.engine;
      ignore (Engine.schedule c.engine ~after:0 q.slots.(i));
      q.slots.(i) <- ignore
    done;
    q.len <- 0

  let waiters c = c.q.len
end

type proc = { engine : Engine.t; mutable k : (unit, unit) continuation }

let spawn eng body =
  let p = { engine = eng; k = unresumed } in
  let resume () = continue p.k () in
  let on_sleep =
    Some
      (fun k ->
        p.k <- k;
        ignore (Engine.schedule p.engine ~after:!sleep_ns resume))
  in
  let on_wait =
    Some
      (fun k ->
        let q = !wait_target in
        wait_target := no_waiters;
        p.k <- k;
        Cond.push q resume)
  in
  let handler =
    {
      retc = ignore;
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) :
             ((a, unit) continuation -> unit) option ->
          match eff with
          | Sleep ->
              if !sleep_engine = Engine.id p.engine then on_sleep
              else
                Some
                  (fun k ->
                    discontinue k
                      (Invalid_argument
                         "Process.sleep: not the engine this process was \
                          spawned on"))
          | Wait -> on_wait
          | _ -> None);
    }
  in
  ignore (Engine.schedule eng ~after:0 (fun () -> match_with body () handler))

let wait_until eng c pred =
  ignore eng;
  let rec loop () =
    if not (pred ()) then begin
      Cond.wait c;
      loop ()
    end
  in
  loop ()
