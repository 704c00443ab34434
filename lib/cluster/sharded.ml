(* Flow-scale churn workload on one engine.

   64 client hosts and 8 servers behind one balancer, every link with a
   5 µs propagation delay and no serialization. A pacer sends 64
   packets per 1 µs tick, walking a global round-robin cursor over the
   flows: send j targets flow [j mod n] at tick [j / 64], and the
   flow's per-incarnation counters are closed-form in the round number
   r = j / n (k = r mod 8, generation = r / 8). Servers reply straight
   to the client (DSR). The [csv] summary is per-client sends and
   responses plus the tracked-flow counts at the send horizon and after
   the idle-expiry drain. *)

let clients = 64
let servers = 8
let packets_per_incarnation = 8 (* the 8th carries FIN *)
let rounds = 12 (* sends per flow over the whole run *)
let batch = 64 (* sends per pacer tick *)

type result = {
  n : int;
  events : int;
  responses : int;
  active_peak : int;
  wall_s : float;
  events_per_sec : float;
  words_per_flow : float;
  full_major_s : float;
  major_collections : int;
  major_words : float;
  csv : string;
}

let flows ?(seed = 0) ~n () =
  if n < 1 then invalid_arg "Sharded.flows: n must be >= 1";
  if seed < 0 then invalid_arg "Sharded.flows: seed must be >= 0";
  Gc.compact ();
  let base_live = (Gc.stat ()).Gc.live_words in
  let delay = Des.Time.us 5 in
  let engine = Des.Engine.create () in
  let fab = Netsim.Fabric.create engine in
  let vip = Netsim.Addr.v 1 80 in
  let server_ips = Array.init servers (fun i -> 10 + i) in
  let client_ips = Array.init clients (fun i -> 100 + i) in
  let config =
    {
      Inband.Config.default with
      Inband.Config.flow_idle_timeout = Des.Time.ms 32;
      sweep_interval = Des.Time.ms 16;
    }
  in
  let balancer = Inband.Balancer.create fab ~vip ~server_ips ~config () in
  let responses = Array.make clients 0 in
  let sends_by_client = Array.make clients 0 in
  Array.iteri
    (fun c ip ->
      Netsim.Fabric.register fab ~ip (fun _ ->
          responses.(c) <- responses.(c) + 1))
    client_ips;
  Array.iter
    (fun ip ->
      Netsim.Fabric.register fab ~ip (fun pkt ->
          (* Respond to data; FINs are end-of-flow, nothing to say. *)
          if not pkt.Netsim.Packet.flags.Netsim.Packet.fin then
            Netsim.Fabric.send fab ~from:ip
              (Netsim.Packet.make ~src:vip ~dst:pkt.Netsim.Packet.src
                 ~seq:pkt.Netsim.Packet.ack ~ack:pkt.Netsim.Packet.seq
                 ~flags:Netsim.Packet.flag_ack ~payload:"")))
    server_ips;
  let wire ~src ~dst =
    Netsim.Fabric.add_link fab ~src ~dst
      (Netsim.Link.create engine ~delay ~rate_bps:0 ())
  in
  Array.iter (fun cip -> wire ~src:cip ~dst:vip.Netsim.Addr.ip) client_ips;
  Array.iter
    (fun sip ->
      wire ~src:vip.Netsim.Addr.ip ~dst:sip;
      Array.iter (fun cip -> wire ~src:sip ~dst:cip) client_ips)
    server_ips;
  (* Flow i lives on client [(i + seed) land 63]; its source port
     encodes the flow index and incarnation (offset by the seed, so
     distinct seeds route through distinct Maglev entries), making every
     incarnation a fresh key. *)
  let stride = (n + clients - 1) / clients in
  let port_base = seed land 0xffff in
  let total_sends = rounds * n in
  let tick = ref 0 in
  let rec pacer () =
    let m = !tick in
    incr tick;
    let j_end = Stdlib.min ((m + 1) * batch) total_sends in
    for j = m * batch to j_end - 1 do
      let i = j mod n in
      let c = (i + seed) land (clients - 1) in
      let cip = client_ips.(c) in
      let r = j / n in
      let kth = r mod packets_per_incarnation in
      let gen = r / packets_per_incarnation in
      let port = port_base + (i lsr 6) + (gen * stride) in
      let fin = kth = packets_per_incarnation - 1 in
      Netsim.Fabric.send fab ~from:cip
        (Netsim.Packet.make
           ~src:(Netsim.Addr.v cip port)
           ~dst:vip ~seq:kth ~ack:0
           ~flags:
             (if fin then Netsim.Packet.flag_fin_ack
              else Netsim.Packet.flag_ack)
           ~payload:"");
      sends_by_client.(c) <- sends_by_client.(c) + 1
    done;
    if j_end < total_sends then
      Des.Engine.post_after engine ~delay:(Des.Time.us 1) pacer
  in
  Des.Engine.post_after engine ~delay:(Des.Time.us 1) pacer;
  let gc0 = Gc.quick_stat () in
  let t0 = Unix.gettimeofday () in
  (* Phase 1: drive all sends plus in-flight drain, then measure live
     memory at peak concurrency under a forced full major. *)
  let send_horizon =
    Des.Time.us ((total_sends / batch) + 2) + Des.Time.ms 1
  in
  Des.Engine.run engine ~until:send_horizon;
  let active_peak = Inband.Balancer.active_flows balancer in
  let fm0 = Unix.gettimeofday () in
  Gc.full_major ();
  let full_major_s = Unix.gettimeofday () -. fm0 in
  let live_at_peak = (Gc.stat ()).Gc.live_words in
  (* Phase 2: silence the traffic and let idle expiry reap the table —
     wheel-scheduled sweeps must walk every flow out. *)
  Des.Engine.run engine ~until:(send_horizon + Des.Time.ms 200);
  let wall_s = Unix.gettimeofday () -. t0 -. full_major_s in
  let gc1 = Gc.quick_stat () in
  let active_end = Inband.Balancer.active_flows balancer in
  if active_end <> 0 then
    failwith
      (Fmt.str "Sharded.flows: %d flows survived idle expiry" active_end);
  let events = Des.Engine.events_fired engine in
  let total_responses = Array.fold_left ( + ) 0 responses in
  let csv =
    let buf = Buffer.create 4096 in
    Buffer.add_string buf "client_ip,sends,responses\n";
    Array.iteri
      (fun c ip ->
        Buffer.add_string buf
          (Fmt.str "%d,%d,%d\n" ip sends_by_client.(c) responses.(c)))
      client_ips;
    Buffer.add_string buf
      (Fmt.str "total,%d,%d\n" total_sends total_responses);
    Buffer.add_string buf (Fmt.str "active_at_horizon,%d\n" active_peak);
    Buffer.add_string buf (Fmt.str "active_end,%d\n" active_end);
    Buffer.contents buf
  in
  {
    n;
    events;
    responses = total_responses;
    active_peak;
    wall_s;
    events_per_sec = float_of_int events /. wall_s;
    words_per_flow =
      float_of_int (live_at_peak - base_live) /. float_of_int n;
    full_major_s;
    major_collections = gc1.Gc.major_collections - gc0.Gc.major_collections;
    major_words = gc1.Gc.major_words -. gc0.Gc.major_words;
    csv;
  }

let baseline_key = "flows_baseline_events_per_sec"

let gate ~baseline r : Bench_store.gate =
  let ( let* ) = Result.bind in
  let* recorded = Bench_store.recorded ~key:baseline_key baseline in
  let* _ = Bench_store.rate_gate ~recorded r.events_per_sec in
  let words =
    Option.value ~default:Float.infinity
      (List.assoc_opt "flows_baseline_words_per_flow" baseline)
  in
  if r.words_per_flow > 1.5 *. words then
    Error
      ( "words",
        Fmt.str
          "%.1f live words/flow exceeds the recorded budget (%.1f \
           words/flow) x1.5"
          r.words_per_flow words )
  else Ok ""
