(* First-class safe-memory-reclamation backend: the defer ->
   grace-detection -> harvest cycle behind the slab frame, abstracted
   over the detection scheme (RCU grace periods, EBR/DEBRA epochs,
   Hyaline retirement batches).

   Tokens are plain ints, monotone per scheme: [defer] stamps the
   object with the token a reclamation right now would have to wait
   for, and the object is safe to recycle once [ripe_upto] has reached
   that token. This is exactly the cookie contract Latq already
   assumes, so every scheme reuses the latent-queue machinery
   unchanged. *)

type t = {
  scheme : string;  (** registry label, e.g. ["rcu"], ["ebr-debra"] *)
  snapshot : unit -> int;
      (** the token a defer issued right now would receive (pure; an
          upper bound on every token issued so far) *)
  defer : cpu:int -> int;
      (** issue a token for one deferred object on [cpu]; also runs the
          scheme's per-defer accounting (DEBRA amortized epoch
          advancement, Hyaline batch fill) *)
  ripe_upto : unit -> int;
      (** monotone reclamation frontier: a token is ripe iff [<=] this *)
  advance : unit -> unit;
      (** poke grace detection now (epoch scan, batch seal); free to be
          a no-op for schemes with their own engine (RCU) *)
  request : unit -> unit;
      (** ask for asynchronous detection progress (start a GP, arm the
          epoch poller); never blocks *)
  wait : unit -> unit;
      (** block (process context) until every token issued before the
          call is ripe — the [synchronize] analogue *)
  on_ripen : (int -> unit) -> unit;
      (** register a hook called with the new frontier whenever it
          advances *)
  reader_enter : (Sim.Machine.cpu -> unit) option;
  reader_exit : (Sim.Machine.cpu -> unit) option;
      (** quiescence hooks, fired at the outermost read-side
          section entry/exit; [None] for schemes that track readers
          themselves (RCU's nesting counters) *)
}

let ripe t token = token <= t.ripe_upto ()

let rec fire hooks frontier =
  match hooks with
  | [] -> ()
  | f :: rest ->
      f frontier;
      fire rest frontier

(* The RCU mapping is 1:1 with the calls Prudence used to make
   directly, so slub/prudence behaviour is unchanged to the byte:
   defer = snapshot, ripe_upto = completed, request = request_gp,
   wait = synchronize. *)
let of_rcu rcu =
  {
    scheme = "rcu";
    snapshot = (fun () -> Rcu.snapshot rcu);
    defer = (fun ~cpu:_ -> Rcu.snapshot rcu);
    ripe_upto = (fun () -> Rcu.completed rcu);
    advance = (fun () -> ());
    request = (fun () -> Rcu.request_gp rcu);
    wait = (fun () -> Rcu.synchronize rcu);
    on_ripen = (fun f -> Rcu.on_gp_complete rcu f);
    reader_enter = None;
    reader_exit = None;
  }
