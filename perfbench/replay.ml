(* Per-layer costs measured from outside the program: what the live run
   showed the load balancer is captured here in flat arrays, then fed
   again through each layer's public functions on fresh instances, with
   the calls timed. A replay that must reproduce the live run (the LB's
   sample and action counts) is also a check on the capture. *)

(* Growable int array. *)
module Vec = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 1024 0; n = 0 }

  let push v x =
    if v.n = Array.length v.a then begin
      let a = Array.make (2 * v.n) 0 in
      Array.blit v.a 0 a 0 v.n;
      v.a <- a
    end;
    Array.unsafe_set v.a v.n x;
    v.n <- v.n + 1

  let get v i = v.a.(i)
  let length v = v.n
end

let fin_bit = 1
let rst_bit = 2
let syn_bit = 4

(* Client-to-VIP packets as the LB saw them. Only what the datapath
   reads is kept: arrival time, source address and the SYN/FIN/RST
   flags. The destination is the workload's VIP. *)
type packets = {
  at : Vec.t;
  src : Vec.t;  (** [ip lsl 16 lor port]. *)
  flags : Vec.t;
}

let packets () =
  { at = Vec.create (); src = Vec.create (); flags = Vec.create () }
let n_packets p = Vec.length p.at

let push_packet p ~at ~ip ~port ~syn ~fin ~rst =
  Vec.push p.at at;
  Vec.push p.src ((ip lsl 16) lor port);
  Vec.push p.flags
    ((if fin then fin_bit else 0)
    lor (if rst then rst_bit else 0)
    lor if syn then syn_bit else 0)

let packet_of p ~vip i =
  let s = Vec.get p.src i and f = Vec.get p.flags i in
  let flags =
    if f land rst_bit <> 0 then Netsim.Packet.flag_rst
    else if f land fin_bit <> 0 then Netsim.Packet.flag_fin_ack
    else if f land syn_bit <> 0 then Netsim.Packet.flag_syn
    else Netsim.Packet.flag_ack
  in
  Netsim.Packet.make
    ~src:(Netsim.Addr.v (s lsr 16) (s land 0xffff))
    ~dst:vip ~seq:0 ~ack:0 ~flags ~payload:""

let ends_flow p i = Vec.get p.flags i land (fin_bit lor rst_bit) <> 0
let batch = 65_536

(* Build each batch of packets untimed, then hand it to [f] with its
   offset; [f] does (and times) the layer's work. *)
let iter_batches p ~vip f =
  let n = n_packets p in
  let rec go off =
    if off < n then begin
      let len = Stdlib.min batch (n - off) in
      let pkts = Array.init len (fun j -> packet_of p ~vip (off + j)) in
      f off pkts;
      go (off + len)
    end
  in
  go 0

type cost = {
  mutable seconds : float;
  mutable words : float;
  mutable ops : int;
}

let cost () = { seconds = 0.0; words = 0.0; ops = 0 }

let timed c f =
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let r = f () in
  c.seconds <- c.seconds +. (Unix.gettimeofday () -. t0);
  c.words <- c.words +. (Gc.minor_words () -. w0);
  r

let per_op num ops = if ops = 0 then 0.0 else num /. float_of_int ops

(* Run [go] inside the named span, when tracing. *)
let in_span span go =
  match span with Some (tr, name) -> Span.with_ tr name go | None -> go ()

(* The LB as the live run built it, behind a fabric whose backends
   swallow what they get. *)
type lb_spec = {
  config : Inband.Config.t;
  policy : Inband.Policy.t;
  table_size : int;
  n_servers : int;
  vip : Netsim.Addr.t;
  seed : int;
}

let backend_ip i = 10 + i

let fabric spec =
  let engine = Des.Engine.create () in
  let fab = Netsim.Fabric.create engine in
  let ips = Array.init spec.n_servers backend_ip in
  Array.iter (fun ip -> Netsim.Fabric.register fab ~ip ignore) ips;
  (engine, fab, ips)

let wire engine fab ~vip_ip ips =
  Array.iter
    (fun ip ->
      Netsim.Fabric.add_link fab ~src:vip_ip ~dst:ip
        (Netsim.Link.create engine ~delay:(Des.Time.ns 1) ~rate_bps:0 ()))
    ips

type lb_result = {
  lb : Inband.Balancer.t;
  lb_cost : cost;
  tombstones_peak : int;
}

(* Drive the captured stream into [deliver] at its recorded times. The
   engine is advanced to each arrival before delivery, so the LB's own
   timers (idle sweeps) fire in the same places as in the live run. *)
let drive ?span p ~vip engine c ~until deliver ~on_batch =
  iter_batches p ~vip (fun off pkts ->
      let go () =
        timed c (fun () ->
            Array.iteri
              (fun j pkt ->
                Des.Engine.run engine ~until:(Vec.get p.at (off + j));
                deliver pkt)
              pkts)
      in
      in_span span go;
      c.ops <- c.ops + Array.length pkts;
      on_batch ());
  Des.Engine.run engine ~until

let replay_lb ?span ?(pcc = false) spec p ~until =
  let engine, fab, ips = fabric spec in
  let lb =
    Inband.Balancer.create fab ~vip:spec.vip ~server_ips:ips
      ~policy:spec.policy ~config:spec.config ~table_size:spec.table_size
      ~rng:(Des.Rng.split (Des.Rng.create ~seed:spec.seed) ~label:"p2c")
      ()
  in
  wire engine fab ~vip_ip:spec.vip.Netsim.Addr.ip ips;
  if pcc then ignore (Cluster.Oracle.attach lb);
  let c = cost () in
  let tomb = ref 0 in
  let vip_ip = spec.vip.Netsim.Addr.ip in
  drive ?span p ~vip:spec.vip engine c ~until
    (fun pkt -> Netsim.Fabric.deliver fab ~ip:vip_ip pkt)
    ~on_batch:(fun () ->
      tomb := Stdlib.max !tomb (Inband.Balancer.flow_tombstones lb));
  { lb; lb_cost = c; tombstones_peak = !tomb }

(* The same stream, the same fabric and links, but the VIP host only
   forwards: what [replay_lb] costs beyond this is the LB's own work. *)
let replay_baseline ?span spec p ~until =
  let engine, fab, ips = fabric spec in
  let vip_ip = spec.vip.Netsim.Addr.ip in
  Netsim.Fabric.register fab ~ip:vip_ip (fun pkt ->
      Netsim.Fabric.send fab ~from:vip_ip ~next_hop:ips.(0) pkt);
  wire engine fab ~vip_ip ips;
  let c = cost () in
  drive ?span p ~vip:spec.vip engine c ~until
    (fun pkt -> Netsim.Fabric.deliver fab ~ip:vip_ip pkt)
    ~on_batch:ignore;
  c

(* Flow-table traffic of the datapath: a probe per packet, an insert per
   new flow, a removal per FIN/RST. Idle expiry is not replayed. *)
let replay_flow_table ?span spec p =
  let c = cost () in
  let ft = Netsim.Flow_table.create () in
  let next = ref 0 in
  iter_batches p ~vip:spec.vip (fun off pkts ->
      let keys = Array.map Netsim.Packet.flow pkts in
      let ops = ref 0 in
      let go () =
        timed c (fun () ->
            Array.iteri
              (fun j key ->
                if Netsim.Flow_table.find ft key < 0 then begin
                  Netsim.Flow_table.add ft key !next;
                  incr next;
                  incr ops
                end;
                if ends_flow p (off + j) then begin
                  Netsim.Flow_table.remove ft key;
                  incr ops
                end)
              keys)
      in
      in_span span go;
      c.ops <- c.ops + Array.length keys + !ops);
  c

(* The estimator on the same per-flow lifecycle; the flow-table part of
   the loop is the cost of [replay_flow_table] and is subtracted by the
   caller. *)
let replay_estimator ?span spec p =
  let c = cost () in
  let ft = Netsim.Flow_table.create () in
  let ens = Inband.Ensemble.create ~config:spec.config in
  iter_batches p ~vip:spec.vip (fun off pkts ->
      let keys = Array.map Netsim.Packet.flow pkts in
      let go () =
        timed c (fun () ->
            Array.iteri
              (fun j key ->
                let now = Vec.get p.at (off + j) in
                let slot =
                  let s = Netsim.Flow_table.find ft key in
                  if s >= 0 then s
                  else begin
                    let s = Inband.Ensemble.create_flow ens ~now in
                    Netsim.Flow_table.add ft key s;
                    s
                  end
                in
                ignore (Inband.Ensemble.on_packet ens slot ~now);
                if ends_flow p (off + j) then begin
                  Inband.Ensemble.release_flow ens slot;
                  Netsim.Flow_table.remove ft key
                end)
              keys)
      in
      in_span span go;
      c.ops <- c.ops + Array.length keys);
  c

let pool spec =
  Maglev.Pool.create ~table_size:spec.table_size
    ~names:
      (Array.init spec.n_servers (fun i -> Fmt.str "server-%d" (backend_ip i)))
    ()

let replay_lookups ?span spec p =
  let c = cost () in
  let pool = pool spec in
  let acc = ref 0 in
  iter_batches p ~vip:spec.vip (fun _ pkts ->
      let hashes =
        Array.map
          (fun pkt -> Netsim.Flow_key.hash (Netsim.Packet.flow pkt))
          pkts
      in
      let go () =
        timed c (fun () ->
            Array.iter
              (fun h -> acc := !acc + Maglev.Pool.lookup pool h)
              hashes)
      in
      in_span span go;
      c.ops <- c.ops + Array.length hashes);
  ignore (Sys.opaque_identity !acc);
  c

let replay_rebuilds ?span spec weights =
  let c = cost () in
  let pool = pool spec in
  let go () =
    timed c (fun () ->
        List.iter
          (fun w ->
            Maglev.Pool.set_weights pool w;
            Maglev.Pool.rebuild pool)
          weights)
  in
  in_span span go;
  c.ops <- List.length weights;
  c

(* In-band samples as the live LB produced them. *)
type samples = { s_at : Vec.t; s_server : Vec.t; s_value : Vec.t }

let samples () =
  { s_at = Vec.create (); s_server = Vec.create (); s_value = Vec.create () }
let n_samples s = Vec.length s.s_at

let replay_controller ?span spec s =
  let c = cost () in
  let ctl = Inband.Controller.create ~config:spec.config ~pool:(pool spec) () in
  let go () =
    timed c (fun () ->
        for i = 0 to n_samples s - 1 do
          ignore
            (Inband.Controller.on_sample ctl ~now:(Vec.get s.s_at i)
               ~server:(Vec.get s.s_server i) (Vec.get s.s_value i))
        done)
  in
  in_span span go;
  c.ops <- n_samples s;
  (c, Inband.Controller.action_count ctl)

(* Request bytes per connection, fed to one server-side reader each. *)
let replay_parse ?span payloads =
  let c = cost () in
  let readers = Hashtbl.create 64 in
  let requests = ref 0 and errors = ref 0 in
  let go () =
    timed c (fun () ->
        List.iter
          (fun (flow, bytes) ->
            let r =
              match Hashtbl.find_opt readers flow with
              | Some r -> r
              | None ->
                  let r = Memcache.Protocol.Reader.requests () in
                  Hashtbl.add readers flow r;
                  r
            in
            match Memcache.Protocol.Reader.feed r bytes with
            | Ok reqs -> requests := !requests + List.length reqs
            | Error _ -> incr errors)
          payloads)
  in
  in_span span go;
  c.ops <- !requests;
  (c, !errors)

(* Histogram.record on the live GET latencies, one value per recorded
   observation (each bucket's lower bound), interleaved across buckets
   so consecutive records do not hit one bucket. *)
let replay_histogram ?span h ~cap =
  let buckets =
    Stats.Histogram.fold_buckets h ~init:[] ~f:(fun acc ~lo ~hi:_ ~count ->
        (lo, count) :: acc)
    |> Array.of_list
  in
  let values = Vec.create () in
  let left = Array.map snd buckets in
  let remaining = ref (Array.fold_left ( + ) 0 left) in
  while !remaining > 0 && Vec.length values < cap do
    Array.iteri
      (fun i (lo, _) ->
        if left.(i) > 0 && Vec.length values < cap then begin
          Vec.push values lo;
          left.(i) <- left.(i) - 1;
          decr remaining
        end)
      buckets
  done;
  let c = cost () in
  let dst = Stats.Histogram.create () in
  let go () =
    timed c (fun () ->
        for i = 0 to Vec.length values - 1 do
          Stats.Histogram.record dst (Vec.get values i)
        done)
  in
  in_span span go;
  c.ops <- Vec.length values;
  c
