(* Chrome trace-event JSON exporter (the format Perfetto and
   chrome://tracing load). Each traced run becomes one "process": its CPUs
   are threads, grace periods are duration slices on a synthetic "rcu-gp"
   thread, idle windows are slices on their CPU's thread, and every other
   event is an instant. Timestamps are microseconds (the format's unit);
   virtual nanoseconds keep their sub-us precision as decimals. *)

let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let ts_of_ns ns = Printf.sprintf "%d.%03d" (ns / 1000) (abs ns mod 1000)

type writer = { buf : Buffer.t; mutable first : bool }

let obj w fields =
  if w.first then w.first <- false else Buffer.add_char w.buf ',';
  Buffer.add_char w.buf '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char w.buf ',';
      Buffer.add_string w.buf (Printf.sprintf "\"%s\":%s" k v))
    fields;
  Buffer.add_string w.buf "}\n"

let str s = "\"" ^ escape s ^ "\""

let args_of (e : Event.t) =
  let fields =
    (if e.Event.label = "" then [] else [ ("label", str e.Event.label) ])
    @ if e.Event.arg = 0 then [] else [ ("arg", string_of_int e.Event.arg) ]
  in
  match fields with
  | [] -> []
  | fields ->
      [
        ( "args",
          "{"
          ^ String.concat ","
              (List.map (fun (k, v) -> Printf.sprintf "\"%s\":%s" k v) fields)
          ^ "}" );
      ]

let metadata w ~pid ~tid ~meta ~name =
  obj w
    ([ ("name", str meta); ("ph", str "M"); ("pid", string_of_int pid) ]
    @ (match tid with None -> [] | Some t -> [ ("tid", string_of_int t) ])
    @ [ ("args", "{\"name\":" ^ str name ^ "}") ])

let add_run w ~pid ~name tracer =
  let ncpus = Tracer.ncpus tracer in
  let gp_tid = ncpus and global_tid = ncpus + 1 in
  let tid_of cpu = if cpu >= 0 && cpu < ncpus then cpu else global_tid in
  metadata w ~pid ~tid:None ~meta:"process_name" ~name;
  for c = 0 to ncpus - 1 do
    metadata w ~pid ~tid:(Some c) ~meta:"thread_name"
      ~name:(Printf.sprintf "cpu%d" c)
  done;
  metadata w ~pid ~tid:(Some gp_tid) ~meta:"thread_name" ~name:"rcu-gp";
  metadata w ~pid ~tid:(Some global_tid) ~meta:"thread_name" ~name:"global";
  let common ~tid (e : Event.t) =
    [
      ("ts", ts_of_ns e.Event.time);
      ("pid", string_of_int pid);
      ("tid", string_of_int tid);
    ]
  in
  let instant ?tid (e : Event.t) =
    let tid = match tid with Some t -> t | None -> tid_of e.Event.cpu in
    obj w
      ([ ("name", str (Event.kind_name e.Event.kind)); ("ph", str "i") ]
      @ common ~tid e
      @ [ ("s", str "t") ]
      @ args_of e)
  in
  let slice ~tid ~name (start : Event.t) (stop : Event.t) =
    obj w
      ([
         ("name", str name);
         ("ph", str "X");
         ("dur", ts_of_ns (stop.Event.time - start.Event.time));
       ]
      @ common ~tid start @ args_of start)
  in
  (* Pair gp-start/gp-end by grace-period sequence number and
     idle-start/idle-end by CPU into duration slices; the ring may have
     dropped one half of a pair, in which case the survivor is emitted as
     an instant so nothing is silently lost. *)
  let open_gps = Hashtbl.create 8 in
  let open_idle = Hashtbl.create 8 in
  List.iter
    (fun (e : Event.t) ->
      match e.Event.kind with
      | Sim.Probe.Gp_start -> Hashtbl.replace open_gps e.Event.arg e
      | Gp_end -> (
          match Hashtbl.find_opt open_gps e.Event.arg with
          | Some start ->
              Hashtbl.remove open_gps e.Event.arg;
              slice ~tid:gp_tid ~name:"grace-period" start e
          | None -> instant ~tid:gp_tid e)
      | Idle_start -> Hashtbl.replace open_idle e.Event.cpu e
      | Idle_end -> (
          match Hashtbl.find_opt open_idle e.Event.cpu with
          | Some start ->
              Hashtbl.remove open_idle e.Event.cpu;
              slice ~tid:(tid_of e.Event.cpu) ~name:"idle" start e
          | None -> instant e)
      | _ -> instant e)
    (Tracer.events tracer);
  Hashtbl.iter (fun _ e -> instant ~tid:gp_tid e) open_gps;
  Hashtbl.iter (fun _ e -> instant e) open_idle

let to_string runs =
  let w = { buf = Buffer.create 65536; first = true } in
  Buffer.add_string w.buf "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  List.iteri (fun i (name, tracer) -> add_run w ~pid:(i + 1) ~name tracer) runs;
  Buffer.add_string w.buf "]}\n";
  Buffer.contents w.buf

let write_file path runs =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string runs))
