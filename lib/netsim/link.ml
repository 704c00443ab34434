type t = {
  engine : Des.Engine.t;
  delay : Des.Time.t;
  rate_bps : int;
  queue_capacity : int;
  mutable loss_prob : float;
  jitter : Stats.Dist.t option;
  rng : Des.Rng.t option;
  queue : Packet.t Queue.t;
  mutable busy : bool;
  mutable sink : (Packet.t -> unit) option;
  mutable extra : Des.Time.t;
  m_sent : Telemetry.Registry.counter;
  m_bytes : Telemetry.Registry.counter;
  m_queue_drops : Telemetry.Registry.counter;
  m_loss_drops : Telemetry.Registry.counter;
}

let create engine ~delay ?(rate_bps = 10_000_000_000) ?(queue_capacity = 1024)
    ?(loss_prob = 0.0) ?jitter ?rng ?telemetry ?(metric = "link") ?index () =
  if delay < 0 then invalid_arg "Link.create: negative delay";
  if rate_bps < 0 then invalid_arg "Link.create: negative rate";
  if loss_prob < 0.0 || loss_prob >= 1.0 then
    invalid_arg "Link.create: loss_prob must be in [0, 1)";
  if (loss_prob > 0.0 || jitter <> None) && rng = None then
    invalid_arg "Link.create: loss/jitter require an rng";
  let registry =
    match telemetry with
    | Some r -> r
    | None -> Telemetry.Registry.create ()
  in
  let t =
    {
      engine;
      delay;
      rate_bps;
      queue_capacity;
      loss_prob;
      jitter;
      rng;
      queue = Queue.create ();
      busy = false;
      sink = None;
      extra = 0;
      m_sent = Telemetry.Registry.counter registry ?index (metric ^ ".sent");
      m_bytes = Telemetry.Registry.counter registry ?index (metric ^ ".bytes");
      m_queue_drops =
        Telemetry.Registry.counter registry ?index (metric ^ ".queue_drops");
      m_loss_drops =
        Telemetry.Registry.counter registry ?index (metric ^ ".loss_drops");
    }
  in
  (* Congestion (queue overflow) and loss-process drops are distinct
     signals — a loss burst fault must not read as congestion — but the
     historical [.drops] total stays available as their sum. *)
  Telemetry.Registry.gauge_fn registry ?index (metric ^ ".drops") (fun () ->
      float_of_int
        (Telemetry.Registry.Counter.value t.m_queue_drops
        + Telemetry.Registry.Counter.value t.m_loss_drops));
  Telemetry.Registry.gauge_fn registry ?index (metric ^ ".queue") (fun () ->
      float_of_int (Queue.length t.queue + if t.busy then 1 else 0));
  t

let connect t sink =
  if t.sink <> None then invalid_arg "Link.connect: already connected";
  t.sink <- Some sink

let tx_time t pkt =
  if t.rate_bps = 0 then 0
  else Packet.wire_size pkt * 8 * 1_000_000_000 / t.rate_bps

let lost t =
  t.loss_prob > 0.0
  &&
  match t.rng with
  | Some rng -> Des.Rng.float rng 1.0 < t.loss_prob
  | None -> false

let jitter_of t =
  match (t.jitter, t.rng) with
  | Some dist, Some rng ->
      Des.Time.ns (int_of_float (Stats.Dist.draw dist rng))
  | _, _ -> 0

let deliver t pkt =
  match t.sink with
  | None -> invalid_arg "Link.send: not connected"
  | Some sink -> sink pkt

(* Transmit the head of the queue; when its last bit leaves, start
   propagation (or drop it if the loss process says so) and move on to
   the next queued packet. *)
(* Both per-packet events are [post]ed: neither is ever cancelled, so
   they need no event record and a packet traversal costs only the two
   callback closures. *)
let rec start_tx t =
  if Queue.is_empty t.queue then t.busy <- false
  else begin
    let pkt = Queue.take t.queue in
    t.busy <- true;
    Des.Engine.post_after t.engine ~delay:(tx_time t pkt) (fun () ->
        if lost t then Telemetry.Registry.Counter.incr t.m_loss_drops
        else begin
          let prop = t.delay + t.extra + jitter_of t in
          Telemetry.Registry.Counter.incr t.m_sent;
          Telemetry.Registry.Counter.add t.m_bytes (Packet.wire_size pkt);
          Des.Engine.post_after t.engine ~delay:prop (fun () -> deliver t pkt)
        end;
        start_tx t)
  end

let send t pkt =
  if t.sink = None then invalid_arg "Link.send: not connected";
  if Queue.length t.queue >= t.queue_capacity then
    Telemetry.Registry.Counter.incr t.m_queue_drops
  else begin
    Queue.add pkt t.queue;
    if not t.busy then start_tx t
  end

let set_extra_delay t d =
  if d < 0 then invalid_arg "Link.set_extra_delay: negative";
  t.extra <- d

let set_loss_prob t p =
  if p < 0.0 || p >= 1.0 then
    invalid_arg "Link.set_loss_prob: loss_prob must be in [0, 1)";
  if p > 0.0 && t.rng = None then
    invalid_arg "Link.set_loss_prob: link has no rng";
  t.loss_prob <- p

let extra_delay t = t.extra
let loss_prob t = t.loss_prob
let has_rng t = t.rng <> None
let packets_sent t = Telemetry.Registry.Counter.value t.m_sent
let bytes_sent t = Telemetry.Registry.Counter.value t.m_bytes
let queue_drops t = Telemetry.Registry.Counter.value t.m_queue_drops
let loss_drops t = Telemetry.Registry.Counter.value t.m_loss_drops
let drops t = queue_drops t + loss_drops t
let queue_len t = Queue.length t.queue + if t.busy then 1 else 0
