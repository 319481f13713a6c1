let caches =
  [
    { Appmodel.cache_name = "kmalloc-64"; obj_size = 64 };
    { Appmodel.cache_name = "filp"; obj_size = 256 };
    { Appmodel.cache_name = "selinux"; obj_size = 64 };
  ]

(* The two transaction shapes, built once: with and without a client
   session cycling. *)
let txn ~churn =
  (* The SQL work: a memory-context arena — a burst of small palloc-style
     allocations built up while parsing/executing, then released together
     when the context is reset. This bursty, non-deferred traffic on
     kmalloc-64 is what interferes with Prudence's latent-cache sizing
     decisions (the Fig. 8 regression). *)
  let palloc_storm n =
    List.init n (fun _ -> Appmodel.Acquire "kmalloc-64")
    @ [ Appmodel.Work (150 * n) ]
    @ List.init n (fun _ -> Appmodel.Release_newest "kmalloc-64")
  in
  let connection_churn =
    (* Occasionally a client session cycles: socket filp + selinux blob,
       deferred at close. *)
    if churn then
      Appmodel.
        [
          Acquire "filp";
          Acquire "selinux";
          Work 400;
          Release_deferred "filp";
          Release_deferred "selinux";
        ]
    else []
  in
  Appmodel.[ Work 800 ]
  @ palloc_storm 40
  (* One catalog/snapshot entry published via RCU-style deferral. *)
  @ Appmodel.[ Acquire "kmalloc-64"; Release_deferred "kmalloc-64" ]
  @ connection_churn
  @ Appmodel.[ Work 600 ]

let txn_churn = txn ~churn:true
let txn_plain = txn ~churn:false
let gen_txn rng = if Sim.Rng.chance rng 0.10 then txn_churn else txn_plain

let config ?(txns_per_cpu = 3_000) () =
  {
    Appmodel.bench_name = "postgresql";
    caches;
    standing = [ ("filp", 32); ("selinux", 32); ("kmalloc-64", 60) ];
    gen_txn;
    txns_per_cpu;
    think_ns_mean = 4_000.;
  }
