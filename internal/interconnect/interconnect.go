// Package interconnect models the inter-GPU link fabric: point-to-point
// connections between GPU pairs in the style of NVLink/NVSwitch systems
// (paper Section V), with finite per-GPU bandwidth, fixed latency, and the
// head-of-line blocking behaviour that makes naive direct-send composition
// congest (paper Sections II-D and IV-E).
//
// Each GPU has one egress port and one ingress port. Bulk data transfers
// queue FIFO at the source's egress port; the head transfer may only start
// when the destination is accepting bulk data (set by the GPU model: a GPU
// still rendering its draw commands does not accept composition traffic).
// A blocked head therefore blocks everything behind it — exactly the
// congestion CHOPIN's composition scheduler exists to avoid.
//
// Small control messages (scheduler updates and notifications) bypass the
// ports: they are delivered after the link latency and accounted separately,
// matching the paper's observation that scheduler traffic is negligible
// (Section VI-D).
package interconnect

import (
	"fmt"

	"chopin/internal/obs"
	"chopin/internal/sim"
)

// Class tags a transfer for traffic accounting.
type Class uint8

const (
	// ClassComposition is sub-image pixel data exchanged during image
	// composition.
	ClassComposition Class = iota
	// ClassPrimDist is primitive-ID data exchanged by sort-first schemes
	// (GPUpd's distribution phase).
	ClassPrimDist
	// ClassSync is render-target/depth-buffer broadcast data at
	// memory-consistency synchronization points.
	ClassSync
	// ClassControl is small scheduler control traffic.
	ClassControl

	numClasses
)

// String returns the class name.
func (c Class) String() string {
	switch c {
	case ClassComposition:
		return "composition"
	case ClassPrimDist:
		return "primdist"
	case ClassSync:
		return "sync"
	case ClassControl:
		return "control"
	default:
		return "unknown"
	}
}

// classCategory maps a traffic class to its causal attribution category:
// composition exchange bytes are composition cost (the paper's Fig. 4 bucket
// counts the wire time of the sequential exchange, not just the ROP merges),
// everything else is plain inter-GPU transfer.
func classCategory(c Class) obs.Category {
	if c == ClassComposition {
		return obs.CatComposition
	}
	return obs.CatTransfer
}

// Config sets the fabric's performance parameters.
type Config struct {
	// BytesPerCycle is the uni-directional bandwidth of each port. The
	// paper's default is 64 GB/s at 1 GHz = 64 bytes/cycle.
	BytesPerCycle float64
	// LatencyCycles is the point-to-point link latency (default 200).
	LatencyCycles sim.Cycle
	// Ideal makes every transfer instantaneous and unconstrained, the
	// idealization used for IdealGPUpd and IdealCHOPIN (Section V). Ideal
	// fabrics bypass fault injection.
	Ideal bool
	// Retry configures the ack/timeout/retry recovery protocol. The zero
	// value (Timeout == 0) disables it, which is the exact legacy delivery
	// path.
	Retry RetryConfig
	// Topology selects the fabric wiring (see topology.go). The zero value,
	// TopoCrossbar, is the legacy point-to-point crossbar and keeps the
	// original timing path bit-for-bit. Routed topologies (ring, mesh) make
	// each bulk transfer claim a path of per-hop link channels, paying
	// LatencyCycles per hop and contending for shared links. Ignored on
	// Ideal fabrics.
	Topology TopologyKind
}

// RetryConfig parameterizes the ack/timeout/retry protocol that recovers
// dropped and corrupted transfers. The sender expects an acknowledgement one
// link latency after the transfer's last byte drains at the destination; if
// the ack has not arrived Timeout cycles after that expectation, the
// transmission is presumed lost and retransmitted after a capped exponential
// backoff, up to MaxRetries times, after which the transfer is abandoned and
// recorded as lost. Ack messages themselves are modeled as free, like the
// scheduler control traffic the paper calls negligible (Section VI-D).
type RetryConfig struct {
	// Timeout is the slack beyond the expected ack arrival before a
	// transmission is presumed lost. Zero disables the whole protocol.
	Timeout sim.Cycle
	// MaxRetries is how many retransmissions are attempted before the
	// transfer is abandoned as lost.
	MaxRetries int
	// Backoff is the delay before the first retransmission; it doubles on
	// each subsequent retry, capped at BackoffCap (when positive).
	Backoff sim.Cycle
	// BackoffCap bounds the exponential backoff.
	BackoffCap sim.Cycle
}

// DefaultRetry returns a retry configuration tuned to the default link
// parameters: the timeout comfortably exceeds one round trip, and the
// backoff stays well under a typical composition interval.
func DefaultRetry() RetryConfig {
	return RetryConfig{Timeout: 512, MaxRetries: 6, Backoff: 64, BackoffCap: 2048}
}

// DefaultConfig returns the paper's Table II link configuration.
func DefaultConfig() Config {
	return Config{BytesPerCycle: 64, LatencyCycles: 200}
}

// FaultKind enumerates the transfer faults an Injector can impose.
type FaultKind uint8

const (
	// FaultNone lets the transfer proceed unharmed.
	FaultNone FaultKind = iota
	// FaultDrop loses the transmission in transit: bytes leave the source
	// but never arrive.
	FaultDrop
	// FaultCorrupt delivers the payload but the receiver discards it as
	// corrupted; only the sender's timeout can recover it.
	FaultCorrupt
	// FaultDuplicate delivers the payload twice; the receiver dedups the
	// second copy.
	FaultDuplicate
	// FaultDelay adds Fault.Delay cycles of extra transit latency.
	FaultDelay
)

// String returns the fault kind name.
func (k FaultKind) String() string {
	switch k {
	case FaultNone:
		return "none"
	case FaultDrop:
		return "drop"
	case FaultCorrupt:
		return "corrupt"
	case FaultDuplicate:
		return "duplicate"
	case FaultDelay:
		return "delay"
	default:
		return "unknown"
	}
}

// Fault is an Injector's verdict for one transmission.
type Fault struct {
	Kind FaultKind
	// Delay is the extra transit latency for FaultDelay.
	Delay sim.Cycle
}

// Injector decides the fate of transfers as they begin transmitting. It is
// consulted once per transmission — retransmissions of the same transfer are
// consulted again with an incremented attempt — so a probabilistic injector
// naturally lets retries mask transient faults. The disabled path (no
// injector installed) is a single nil check, same contract as the tracer.
type Injector interface {
	// Transfer returns the fault to impose on this transmission. attempt is
	// 1 for the first transmission and increments per retransmission.
	Transfer(src, dst int, bytes int64, class Class, attempt int) Fault
	// Bandwidth returns a multiplier in (0, 1] applied to src's egress
	// bandwidth at cycle now, modeling mid-frame link degradation. Values
	// outside (0, 1) are ignored.
	Bandwidth(src int, now sim.Cycle) float64
}

// FaultCounters tallies injected faults and the recovery protocol's
// responses for one traffic class.
type FaultCounters struct {
	// Drops, Corrupts, Duplicates, Delays count injected faults by kind.
	Drops, Corrupts, Duplicates, Delays int64
	// Retries counts retransmissions started, Timeouts expired ack
	// deadlines, and Lost transfers abandoned after the retry budget.
	Retries, Timeouts, Lost int64
}

// add accumulates o into c.
func (c *FaultCounters) add(o FaultCounters) {
	c.Drops += o.Drops
	c.Corrupts += o.Corrupts
	c.Duplicates += o.Duplicates
	c.Delays += o.Delays
	c.Retries += o.Retries
	c.Timeouts += o.Timeouts
	c.Lost += o.Lost
}

// Stats accumulates fabric traffic by class. Bytes includes retransmitted
// bytes (real wire traffic); Messages counts logical sends only.
type Stats struct {
	Bytes    [numClasses]int64
	Messages [numClasses]int64
	// Faults tallies injected faults and recovery activity per class. All
	// zero when no injector is installed.
	Faults [numClasses]FaultCounters
}

// BytesFor returns the bytes transferred under class c.
func (s *Stats) BytesFor(c Class) int64 { return s.Bytes[c] }

// MessagesFor returns the message count under class c.
func (s *Stats) MessagesFor(c Class) int64 { return s.Messages[c] }

// TotalBytes returns all bytes across classes.
func (s *Stats) TotalBytes() int64 {
	var t int64
	for _, b := range s.Bytes {
		t += b
	}
	return t
}

// FaultsFor returns the fault counters for class c.
func (s *Stats) FaultsFor(c Class) FaultCounters { return s.Faults[c] }

// TotalFaults sums the fault counters across classes.
func (s *Stats) TotalFaults() FaultCounters {
	var t FaultCounters
	for i := range s.Faults {
		t.add(s.Faults[i])
	}
	return t
}

// A LostTransferError reports a transfer abandoned after exhausting its
// retry budget. The frame it belonged to cannot complete normally; the exec
// watchdog surfaces the resulting stall as a structured deadlock diagnostic
// wrapping this error.
type LostTransferError struct {
	Src, Dst int
	Bytes    int64
	Class    Class
	Attempts int
	At       sim.Cycle
}

func (e *LostTransferError) Error() string {
	return fmt.Sprintf("interconnect: %s transfer of %d bytes from GPU %d to GPU %d lost after %d attempts at cycle %d",
		e.Class, e.Bytes, e.Src, e.Dst, e.Attempts, e.At)
}

// A SelfSendError reports a bulk Send with src == dst, which indicates a
// scheme orchestration bug. The fabric records it and completes the transfer
// locally at zero cost so the frame still drains.
type SelfSendError struct {
	GPU   int
	Class Class
	At    sim.Cycle
}

func (e *SelfSendError) Error() string {
	return fmt.Sprintf("interconnect: self-send of %s traffic on GPU %d at cycle %d", e.Class, e.GPU, e.At)
}

// An UnroutableError reports a transfer whose endpoints are disconnected
// after link fail-stop faults: the crossbar pair's point-to-point connection
// was downed, or a routed topology's surviving links no longer connect the
// pair. The fabric records it and completes the transfer at the default
// route's timing so the frame still drains; schemes surface Err at frame
// end.
type UnroutableError struct {
	Src, Dst int
	At       sim.Cycle
	Link     [2]int // the downed link blamed for the disconnection
}

func (e *UnroutableError) Error() string {
	return fmt.Sprintf("interconnect: no route from GPU %d to GPU %d at cycle %d (link %d-%d down)",
		e.Src, e.Dst, e.At, e.Link[0], e.Link[1])
}

type message struct {
	src, dst    int
	bytes       int64
	class       Class
	queued      sim.Cycle // when the transfer entered the egress queue
	onDelivered func()
	x           *xfer // retry-protocol state; nil on the fault-free fast path
	corrupt     bool  // this copy arrives corrupted and is discarded
	spanned     bool  // an ingress span was recorded for this copy (tracing on)
}

// xfer is the sender-side state of one reliable transfer under the retry
// protocol: it dedups duplicate deliveries, matches timeouts to the latest
// transmission, and carries the retry budget. Allocated only when an
// injector is installed and Retry.Timeout > 0.
type xfer struct {
	m            message // canonical payload; m.x points back to this xfer
	attempts     int     // transmissions started, including the first
	retries      int     // retransmissions scheduled
	delivered    bool    // first good copy reached the receiver
	acked        bool    // sender has learned of the delivery
	lost         bool    // abandoned after the retry budget
	retryPending bool    // a retransmission is scheduled but not yet queued
	control      bool    // control message: retransmits bypass the ports
}

// delivery is a scheduled message arrival. Deliveries are recycled through
// the fabric's free list (the engine is single-threaded, so no locking), so
// steady-state transfers do not allocate per event.
type delivery struct {
	f    *Fabric
	m    message
	next *delivery // free-list link
}

// Fire implements sim.Callback: the message's last byte has drained at the
// destination.
func (d *delivery) Fire() {
	f, m := d.f, d.m
	// Recycle before running the callback: the callback may Send again and
	// immediately reuse this slot.
	d.f, d.m = nil, message{}
	d.next = f.free
	f.free = d
	f.wireBytes[m.class] -= m.bytes
	if m.corrupt {
		// Corrupted payload: the receiver discards it. The sender's timeout
		// retransmits (or eventually declares the transfer lost).
		if f.tr != nil {
			f.tr.Instant(f.trIngress[m.dst], "fault.corrupt", f.eng.Now(),
				obs.Arg{Key: "bytes", Val: m.bytes}, obs.Arg{Key: "src", Val: int64(m.src)})
		}
		return
	}
	if x := m.x; x != nil {
		if x.delivered {
			// Duplicate or spurious-retransmit copy: dedup'd silently.
			return
		}
		x.delivered = true
		// The ack reaches the sender one link latency later; it is modeled
		// as free, like control traffic.
		lat := f.cfg.LatencyCycles
		f.eng.After(lat, func() { x.acked = true })
	}
	if f.obs != nil {
		f.obs.Delivered(m.src, m.dst, m.bytes, m.class)
	}
	if m.onDelivered != nil {
		if f.tr != nil && m.spanned {
			// Arm the one-shot cause annotation: work the callback records
			// synchronously (a composition merge, a distribution insert) was
			// launched by this delivery, whose ingress span ends right now.
			// The causal graph builder turns the annotation into a
			// delivery→work edge (DESIGN.md §11).
			f.tr.SetCause(f.trIngress[m.dst], int64(f.eng.Now()))
			m.onDelivered()
			f.tr.ClearCause()
			return
		}
		m.onDelivered()
	}
}

// egressPort is the reusable "egress port frees" event of one source GPU.
type egressPort struct {
	f   *Fabric
	src int
}

// Fire implements sim.Callback: the in-flight transfer's last byte has left
// the source, so the next queued transfer may start.
func (p *egressPort) Fire() {
	p.f.sending[p.src] = false
	p.f.tryStart(p.src)
}

// Observer receives a callback for every transfer accepted by the fabric and
// for every completed delivery. Verification harnesses use the pair to prove
// conservation: everything sent is delivered exactly once, nothing is lost in
// a blocked egress queue and nothing is duplicated.
type Observer interface {
	// Sent fires when a transfer (bulk or control) is accepted for delivery.
	Sent(src, dst int, bytes int64, class Class)
	// Delivered fires when the transfer's last byte drains at the
	// destination, immediately before the sender's onDelivered callback.
	Delivered(src, dst int, bytes int64, class Class)
}

// StartObserver is an optional extension of Observer. Sent fires when a
// bulk transfer is queued, which can be long before any byte moves (a
// blocked egress head parks everything behind it); implementations that also
// satisfy StartObserver are additionally told when each bulk transfer
// actually begins transmitting, with its computed timing, so a timeline can
// draw the true occupancy span rather than the queued interval. end is the
// cycle the last byte drains at the destination — the same instant the
// matching Delivered fires.
//
// Plain Observer implementations keep working unchanged; the fabric detects
// the extension with a type assertion at SetObserver time.
type StartObserver interface {
	Observer
	// Started fires when a bulk transfer leaves the egress queue and begins
	// transmitting.
	Started(src, dst int, bytes int64, class Class, start, end sim.Cycle)
}

// Fabric is the inter-GPU network.
type Fabric struct {
	eng *sim.Engine
	cfg Config
	n   int

	// topo is the routed topology (nil for the crossbar: a single nil check
	// keeps the legacy timing path). linkFree[l] is when directed link l's
	// current occupant drains; routeBuf is the preallocated route scratch
	// (the engine core is single-threaded, so one buffer suffices).
	topo     Topology
	linkFree []sim.Cycle
	routeBuf []int

	// Link fail-stop state. Everything here stays nil until the first
	// DownLink, so the fault-free path pays a single integer/nil check.
	// linkDown[l] marks directed link l failed; downedPairs are crossbar
	// endpoint pairs whose point-to-point connection was severed; detours
	// caches BFS reroutes until the next DownLink invalidates them.
	linkDown        []bool
	downCount       int
	downedPairs     map[[2]int]bool
	downedByID      map[int][2]int
	downedLinks     [][2]int
	detours         map[[2]int][]int
	rerouteCount    int64
	unroutableCount int64
	// linkRetries[l] counts retransmissions routed over link l, lazily
	// allocated on the first retry so fault-free runs never touch it.
	linkRetries []int64

	sending []bool
	// egressQueue[src] is a FIFO consumed from egressHead[src]: popping
	// advances the head index and the slice is reset (retaining capacity)
	// when it drains, so steady-state queuing does not allocate.
	egressQueue [][]message
	egressHead  []int
	ingressFree []sim.Cycle
	accept      []bool
	obs         Observer
	obsStart    StartObserver // non-nil iff obs implements StartObserver

	ports []egressPort // one reusable egress-free event per GPU
	free  *delivery    // recycled delivery events

	// tr is the optional timeline tracer (nil = disabled, a bare nil check
	// on the Send/tryStart/delivery hot paths).
	tr        *obs.Tracer
	trEgress  []obs.Track
	trIngress []obs.Track
	wireBytes [numClasses]int64 // bytes currently in flight, per class

	// inj is the optional fault injector (nil = disabled, a bare nil check
	// on the hot paths — same contract as tr).
	inj Injector

	// lt is the optional link-telemetry collector (nil = disabled, a bare
	// nil check on the hot paths — same contract as tr and inj).
	lt *LinkTelemetry

	err      error // first unrecoverable fault (lost transfer, self-send)
	errCount int

	stats Stats
}

// New returns a fabric connecting n GPUs. All GPUs initially accept bulk
// data.
func New(eng *sim.Engine, n int, cfg Config) (*Fabric, error) {
	if n <= 0 {
		return nil, fmt.Errorf("interconnect: invalid GPU count %d", n)
	}
	if !cfg.Ideal && cfg.BytesPerCycle <= 0 {
		return nil, fmt.Errorf("interconnect: BytesPerCycle must be positive, got %g", cfg.BytesPerCycle)
	}
	f := &Fabric{
		eng:         eng,
		cfg:         cfg,
		n:           n,
		sending:     make([]bool, n),
		egressQueue: make([][]message, n),
		egressHead:  make([]int, n),
		ingressFree: make([]sim.Cycle, n),
		accept:      make([]bool, n),
	}
	for i := range f.accept {
		f.accept[i] = true
	}
	f.ports = make([]egressPort, n)
	for i := range f.ports {
		f.ports[i] = egressPort{f: f, src: i}
	}
	if !cfg.Ideal && cfg.Topology != TopoCrossbar {
		topo, err := NewTopology(cfg.Topology, n)
		if err != nil {
			return nil, err
		}
		f.topo = topo
		f.linkFree = make([]sim.Cycle, topo.NumLinks())
		f.routeBuf = make([]int, 0, topo.Diameter()+1)
	}
	return f, nil
}

// Topology returns the routed topology, or nil for the crossbar.
func (f *Fabric) Topology() Topology { return f.topo }

// Diameter returns the fabric's hop diameter: 1 for the crossbar (and
// ideal fabrics), the topology's diameter otherwise. Plan auto-selection
// keys off it.
func (f *Fabric) Diameter() int {
	if f.topo == nil {
		return 1
	}
	return f.topo.Diameter()
}

// claimRoute reserves the routed src→dst path for a transfer whose
// transmission time is tx, starting no earlier than start. The transfer's
// head waits at each link for the previous occupant to drain, occupies the
// link for tx, and pays the link latency per hop; the returned cycle is
// when the last byte arrives at dst (before ingress-port serialization).
// With one hop and no contention this reduces exactly to the crossbar's
// start + tx + LatencyCycles.
func (f *Fabric) claimRoute(src, dst int, start, tx sim.Cycle) sim.Cycle {
	f.routeBuf = f.topo.Route(src, dst, f.routeBuf[:0])
	if f.downCount != 0 {
		f.routeBuf = f.reroute(src, dst, f.routeBuf)
	}
	t := start
	for _, l := range f.routeBuf {
		if free := f.linkFree[l]; free > t {
			if f.lt != nil {
				f.lt.queued[l] += free - t
			}
			t = free
		}
		f.linkFree[l] = t + tx
		t += f.cfg.LatencyCycles
	}
	return t + tx
}

// DownLink fails the fabric link between GPUs a and b (both directions) —
// a link fail-stop fault. On routed topologies, subsequent transfers whose
// route crosses the link detour around it over the shortest surviving path
// (direction reversal on a ring, BFS around the hole on a mesh); pairs the
// survivors disconnect surface a typed UnroutableError. On the crossbar the
// a↔b point-to-point connection has no detour, so transfers between the pair
// are immediately unroutable. Ideal fabrics bypass fault injection entirely,
// including link faults. An error is returned when the endpoints name no
// direct link of the topology (the fault cannot materialize).
func (f *Fabric) DownLink(a, b int) error {
	if a < 0 || b < 0 || a >= f.n || b >= f.n || a == b {
		return fmt.Errorf("interconnect: invalid link %d-%d for %d GPUs", a, b, f.n)
	}
	if f.cfg.Ideal {
		return nil
	}
	if f.topo == nil {
		if f.downedPairs == nil {
			f.downedPairs = make(map[[2]int]bool)
		}
		f.downedPairs[[2]int{a, b}] = true
		f.downedPairs[[2]int{b, a}] = true
		f.downedLinks = append(f.downedLinks, [2]int{a, b})
		return nil
	}
	la := f.topo.LinkBetween(a, b)
	lb := f.topo.LinkBetween(b, a)
	if la < 0 && lb < 0 {
		return fmt.Errorf("interconnect: no direct %s link between GPU %d and GPU %d", f.topo.Kind(), a, b)
	}
	if f.linkDown == nil {
		f.linkDown = make([]bool, f.topo.NumLinks())
		f.downedByID = make(map[int][2]int)
	}
	for _, l := range [2]int{la, lb} {
		if l >= 0 && !f.linkDown[l] {
			f.linkDown[l] = true
			f.downedByID[l] = [2]int{a, b}
			f.downCount++
		}
	}
	f.downedLinks = append(f.downedLinks, [2]int{a, b})
	f.detours = nil
	return nil
}

// reroute substitutes a detour when the default route crosses a downed
// link. Detours are breadth-first searches over the surviving links, cached
// until the next DownLink; when the survivors disconnect the pair, a typed
// UnroutableError is recorded and the transfer keeps the default route's
// timing so the frame still drains.
func (f *Fabric) reroute(src, dst int, route []int) []int {
	downed := -1
	for _, l := range route {
		if f.linkDown[l] {
			downed = l
			break
		}
	}
	if downed < 0 {
		return route
	}
	key := [2]int{src, dst}
	det, cached := f.detours[key]
	if !cached {
		det = f.findDetour(src, dst)
		if f.detours == nil {
			f.detours = make(map[[2]int][]int)
		}
		f.detours[key] = det
	}
	if det == nil {
		f.unroutableCount++
		f.fail(&UnroutableError{Src: src, Dst: dst, At: f.eng.Now(), Link: f.downedByID[downed]})
		return route
	}
	f.rerouteCount++
	if f.lt != nil {
		// Blame the detour on the downed link that forced it.
		f.lt.reroutes[downed]++
	}
	return append(route[:0], det...)
}

// findDetour breadth-first searches the surviving links for a shortest
// src→dst path, visiting neighbours in the topology's ascending link order
// so the detour is deterministic. Returns nil when the pair is
// disconnected.
func (f *Fabric) findDetour(src, dst int) []int {
	prevLink := make([]int, f.n)
	prevNode := make([]int, f.n)
	visited := make([]bool, f.n)
	visited[src] = true
	queue := make([]int, 1, f.n)
	queue[0] = src
	var nbuf []int
	for len(queue) > 0 && !visited[dst] {
		v := queue[0]
		queue = queue[1:]
		nbuf = f.topo.Neighbors(v, nbuf[:0])
		for _, w := range nbuf {
			l := f.topo.LinkBetween(v, w)
			if l < 0 || f.linkDown[l] || visited[w] {
				continue
			}
			visited[w] = true
			prevLink[w] = l
			prevNode[w] = v
			queue = append(queue, w)
		}
	}
	if !visited[dst] {
		return nil
	}
	var rev []int
	for v := dst; v != src; v = prevNode[v] {
		rev = append(rev, prevLink[v])
	}
	out := make([]int, len(rev))
	for i, l := range rev {
		out[len(rev)-1-i] = l
	}
	return out
}

// DownedLinks returns the applied link fail-stop faults as endpoint pairs,
// in down order.
func (f *Fabric) DownedLinks() [][2]int { return f.downedLinks }

// RerouteCount returns how many transfers detoured around a downed link.
func (f *Fabric) RerouteCount() int64 { return f.rerouteCount }

// UnroutableCount returns how many transfers found no surviving route.
func (f *Fabric) UnroutableCount() int64 { return f.unroutableCount }

// LinkRetryCount returns the number of retransmissions whose route crossed
// directed link l — the per-hop attribution of retry traffic on routed
// topologies (always 0 on the crossbar, which has no shared links).
func (f *Fabric) LinkRetryCount(l int) int64 {
	if f.linkRetries == nil || l < 0 || l >= len(f.linkRetries) {
		return 0
	}
	return f.linkRetries[l]
}

// LinkBusyUntil returns when directed link l's current occupant drains —
// diagnostic visibility into per-hop claims on routed topologies.
func (f *Fabric) LinkBusyUntil(l int) sim.Cycle {
	if l < 0 || l >= len(f.linkFree) {
		return 0
	}
	return f.linkFree[l]
}

// fail records the fabric's first unrecoverable fault. The fabric keeps
// operating (degraded) so the frame can drain; schemes surface Err at frame
// end.
func (f *Fabric) fail(err error) {
	if f.err == nil {
		f.err = err
	}
	f.errCount++
}

// Err returns the first unrecoverable fault recorded during the run (a lost
// transfer or a self-send), or nil.
func (f *Fabric) Err() error { return f.err }

// ErrCount returns the number of unrecoverable faults recorded.
func (f *Fabric) ErrCount() int { return f.errCount }

// newDelivery takes a delivery event off the free list (or allocates the
// first few) and arms it with m.
func (f *Fabric) newDelivery(m message) *delivery {
	d := f.free
	if d == nil {
		d = &delivery{}
	} else {
		f.free = d.next
		d.next = nil
	}
	d.f = f
	d.m = m
	return d
}

// Stats returns the accumulated traffic statistics.
func (f *Fabric) Stats() *Stats { return &f.stats }

// SetObserver installs an observer notified of every send and delivery
// (nil removes it). Intended for the verification subsystem; the observer
// must not mutate the fabric. Observers that additionally implement
// StartObserver are also notified when bulk transfers begin transmitting.
func (f *Fabric) SetObserver(o Observer) {
	f.obs = o
	f.obsStart, _ = o.(StartObserver)
}

// SetInjector installs a fault injector consulted as each transmission
// starts (nil removes it). With an injector installed and Retry.Timeout > 0,
// every bulk and control send runs under the ack/timeout/retry protocol.
// Observer semantics are preserved under injection: Sent fires once per
// logical send and Delivered once per first good delivery, so conservation
// checking keeps working — retransmissions and discarded copies are
// accounted in Stats.Faults instead.
func (f *Fabric) SetInjector(inj Injector) { f.inj = inj }

// SetTracer attaches a timeline tracer (nil disables tracing): every bulk
// transfer emits an egress span on the source GPU's egress track and an
// ingress span on the destination's ingress track, linked by a flow arrow;
// control messages emit instants; and per-GPU egress queue depth plus
// per-class bytes-on-wire are registered as sampled counters.
func (f *Fabric) SetTracer(tr *obs.Tracer) {
	f.tr = tr
	if tr == nil {
		f.trEgress, f.trIngress = nil, nil
		return
	}
	f.trEgress = make([]obs.Track, f.n)
	f.trIngress = make([]obs.Track, f.n)
	for g := 0; g < f.n; g++ {
		pid := obs.PidGPU(g)
		proc := obs.GPUProcName(g)
		f.trEgress[g] = tr.Track(pid, proc, obs.TidEgress, "link egress")
		f.trIngress[g] = tr.Track(pid, proc, obs.TidIngress, "link ingress")
		g := g
		tr.Probe(pid, "egress_queue_depth", func() int64 { return int64(f.QueuedAt(g)) })
	}
	for c := Class(0); c < numClasses; c++ {
		c := c
		tr.Probe(obs.PidSim, "wire_bytes."+c.String(), func() int64 { return f.wireBytes[c] })
	}
}

// SetAccept marks whether gpu is accepting bulk data transfers. Flipping a
// GPU to accepting retries any egress heads blocked on it.
func (f *Fabric) SetAccept(gpu int, ok bool) {
	was := f.accept[gpu]
	f.accept[gpu] = ok
	if ok && !was {
		for src := 0; src < f.n; src++ {
			f.tryStart(src)
		}
	}
}

// Send queues a bulk transfer of the given size from src to dst and invokes
// onDelivered (which may be nil) when the last byte has drained at the
// destination. Transfers from the same source are serviced FIFO.
//
// A self-send (src == dst) indicates a scheme orchestration bug: it is
// recorded as a SelfSendError on the fabric and completed locally at zero
// cost so the frame still drains and the error surfaces at frame end.
func (f *Fabric) Send(src, dst int, bytes int64, class Class, onDelivered func()) {
	f.stats.Bytes[class] += bytes
	f.stats.Messages[class]++
	if f.obs != nil {
		f.obs.Sent(src, dst, bytes, class)
	}
	if src == dst {
		f.fail(&SelfSendError{GPU: src, Class: class, At: f.eng.Now()})
		f.wireBytes[class] += bytes
		f.eng.AfterCall(0, f.newDelivery(message{src: src, dst: dst, bytes: bytes, class: class, onDelivered: onDelivered}))
		return
	}
	if f.cfg.Ideal {
		f.wireBytes[class] += bytes
		if f.tr != nil {
			f.tr.Instant(f.trEgress[src], class.String(), f.eng.Now(),
				obs.Arg{Key: "bytes", Val: bytes}, obs.Arg{Key: "dst", Val: int64(dst)})
		}
		f.eng.AfterCall(0, f.newDelivery(message{src: src, dst: dst, bytes: bytes, class: class, onDelivered: onDelivered}))
		return
	}
	m := message{src: src, dst: dst, bytes: bytes, class: class, queued: f.eng.Now(), onDelivered: onDelivered}
	if f.inj != nil && f.cfg.Retry.Timeout > 0 {
		x := &xfer{}
		x.m = m
		x.m.x = x
		m.x = x
	}
	f.egressQueue[src] = append(f.egressQueue[src], m)
	f.tryStart(src)
}

// SendControl delivers a small control message after the link latency,
// without consuming port bandwidth. With an injector installed, control
// messages are subject to injection and (when Retry.Timeout > 0) protected
// by the same retry protocol as bulk transfers, with retransmissions
// bypassing the ports just like the original.
func (f *Fabric) SendControl(src, dst int, bytes int64, fn func()) {
	f.stats.Bytes[ClassControl] += bytes
	f.stats.Messages[ClassControl]++
	if f.obs != nil {
		f.obs.Sent(src, dst, bytes, ClassControl)
	}
	m := message{src: src, dst: dst, bytes: bytes, class: ClassControl, onDelivered: fn}
	if f.inj != nil && !f.cfg.Ideal && f.cfg.Retry.Timeout > 0 {
		x := &xfer{control: true}
		x.m = m
		x.m.x = x
		m.x = x
	}
	f.transmitControl(m)
}

// transmitControl performs one transmission attempt of a control message:
// the initial send and every retransmission route through here.
func (f *Fabric) transmitControl(m message) {
	lat := f.cfg.LatencyCycles
	if f.cfg.Ideal {
		lat = 0
	}
	var flt Fault
	if f.inj != nil && !f.cfg.Ideal {
		attempt := 1
		if m.x != nil {
			m.x.attempts++
			attempt = m.x.attempts
		}
		flt = f.inj.Transfer(m.src, m.dst, m.bytes, ClassControl, attempt)
		if m.x == nil && flt.Kind == FaultDuplicate {
			// Without the retry protocol there is no receiver-side dedup, so
			// a duplicated copy would complete the caller twice.
			flt.Kind = FaultNone
		}
	}
	if f.tr != nil {
		f.tr.Instant(f.trEgress[m.src], "control", f.eng.Now(),
			obs.Arg{Key: "bytes", Val: m.bytes}, obs.Arg{Key: "dst", Val: int64(m.dst)})
	}
	switch flt.Kind {
	case FaultDelay:
		f.stats.Faults[ClassControl].Delays++
		lat += flt.Delay
	case FaultDrop:
		f.stats.Faults[ClassControl].Drops++
		f.faultInstant("fault.drop", m)
		f.armTimer(m.x, f.eng.Now()+lat)
		return
	case FaultCorrupt:
		f.stats.Faults[ClassControl].Corrupts++
		m.corrupt = true
	case FaultDuplicate:
		f.stats.Faults[ClassControl].Duplicates++
		f.faultInstant("fault.duplicate", m)
		dup := m
		f.wireBytes[ClassControl] += dup.bytes
		f.eng.AfterCall(lat+1, f.newDelivery(dup))
	}
	f.wireBytes[ClassControl] += m.bytes
	f.eng.AfterCall(lat, f.newDelivery(m))
	f.armTimer(m.x, f.eng.Now()+lat)
}

// tryStart begins transmitting the head of src's egress queue if the egress
// port is free and the destination is accepting.
func (f *Fabric) tryStart(src int) {
	if f.sending[src] || f.egressHead[src] >= len(f.egressQueue[src]) {
		return
	}
	m := f.egressQueue[src][f.egressHead[src]]
	if !f.accept[m.dst] {
		return // head-of-line blocked until the destination accepts
	}
	f.egressHead[src]++
	if f.egressHead[src] == len(f.egressQueue[src]) {
		// Drained: reset to the front of the backing array, keeping its
		// capacity, so steady-state queuing never reallocates.
		f.egressQueue[src] = f.egressQueue[src][:0]
		f.egressHead[src] = 0
	}
	f.sending[src] = true

	now := f.eng.Now()
	bw := f.cfg.BytesPerCycle
	var flt Fault
	if f.inj != nil {
		attempt := 1
		if m.x != nil {
			m.x.attempts++
			attempt = m.x.attempts
		}
		flt = f.inj.Transfer(m.src, m.dst, m.bytes, m.class, attempt)
		if m.x == nil && flt.Kind == FaultDuplicate {
			// No receiver-side dedup without the retry protocol; a second
			// copy would complete the caller twice.
			flt.Kind = FaultNone
		}
		if mul := f.inj.Bandwidth(src, now); mul > 0 && mul < 1 {
			bw *= mul
		}
	}
	tx := sim.Cycle(float64(m.bytes)/bw + 0.999999)
	if tx < 1 {
		tx = 1
	}
	// Egress port frees when the last byte leaves.
	f.eng.AfterCall(tx, &f.ports[src])
	// Cut-through delivery: last byte arrives latency cycles after it was
	// sent; the ingress port serializes concurrent arrivals. On a routed
	// topology the transfer instead claims its path of link channels,
	// waiting out per-link contention and paying the latency per hop.
	arrive := now + tx + f.cfg.LatencyCycles
	if f.topo != nil {
		arrive = f.claimRoute(m.src, m.dst, now, tx)
		if m.x != nil && m.x.attempts > 1 {
			// Attribute the retransmission to every link it re-claims: the
			// retry holds the whole routed path again, not just the ports.
			if f.linkRetries == nil {
				f.linkRetries = make([]int64, f.topo.NumLinks())
			}
			for _, l := range f.routeBuf {
				f.linkRetries[l]++
			}
		}
	} else if f.downedPairs != nil && f.downedPairs[[2]int{m.src, m.dst}] {
		// The crossbar pair's point-to-point connection is down and has no
		// detour; record the typed error and let the transfer drain.
		f.unroutableCount++
		f.fail(&UnroutableError{Src: m.src, Dst: m.dst, At: now, Link: [2]int{m.src, m.dst}})
	}
	if f.lt != nil {
		// Attribute the transmission to the links it occupies (the claimed
		// route, or the pair's point-to-point connection on the crossbar) —
		// dropped copies included: their bytes left the source and held the
		// links either way.
		var route []int
		if f.topo != nil {
			route = f.routeBuf
		}
		f.lt.recordTransmission(m.src, m.dst, m.bytes, route, tx, now-m.queued)
	}
	switch flt.Kind {
	case FaultDelay:
		f.stats.Faults[m.class].Delays++
		arrive += flt.Delay
		f.faultInstant("fault.delay", m)
	case FaultDrop:
		// The bytes leave the source (the egress port was busy for tx) but
		// never arrive: no delivery, no ingress occupancy. Recovery, if
		// configured, comes from the sender's timeout.
		f.stats.Faults[m.class].Drops++
		f.faultInstant("fault.drop", m)
		f.armTimer(m.x, arrive)
		return
	case FaultCorrupt:
		f.stats.Faults[m.class].Corrupts++
		m.corrupt = true
	}
	recvDone := max(arrive, f.ingressFree[m.dst]+tx)
	f.ingressFree[m.dst] = recvDone
	if f.lt != nil && !m.corrupt {
		// End-to-end latency: queue entry to last byte drained. Corrupted
		// copies never complete a transfer, so they stay out of the
		// distribution (the fault counters account for them).
		f.lt.latency.Record(recvDone - m.queued)
		if f.topo != nil {
			f.lt.hops.Record(int64(len(f.routeBuf)))
		} else {
			f.lt.hops.Record(1)
		}
	}
	f.wireBytes[m.class] += m.bytes
	if f.obsStart != nil {
		f.obsStart.Started(m.src, m.dst, m.bytes, m.class, now, recvDone)
	}
	if f.tr != nil {
		name := m.class.String()
		// Category: composition-class traffic is composition work (the
		// paper's Fig. 4 bucket includes the exchange), other classes are
		// transfer; retransmissions of any class are retry-recovery delay.
		cat, attempt := classCategory(m.class), int64(1)
		if m.x != nil && m.x.attempts > 1 {
			cat, attempt = obs.CatRetry, int64(m.x.attempts)
		}
		id := f.tr.FlowStart(f.trEgress[src], name, now)
		f.tr.Span(f.trEgress[src], name, now, tx, obs.CatArg(cat),
			obs.Arg{Key: "bytes", Val: m.bytes}, obs.Arg{Key: "dst", Val: int64(m.dst)},
			obs.Arg{Key: "attempt", Val: attempt})
		f.tr.Span(f.trIngress[m.dst], name, recvDone-tx, tx, obs.CatArg(cat),
			obs.Arg{Key: "bytes", Val: m.bytes}, obs.Arg{Key: "src", Val: int64(m.src)},
			obs.Arg{Key: "attempt", Val: attempt})
		f.tr.FlowEnd(f.trIngress[m.dst], name, recvDone-tx, id)
		m.spanned = true
	}
	f.eng.AtCall(recvDone, f.newDelivery(m))
	if flt.Kind == FaultDuplicate {
		// The duplicated copy re-serializes through the ingress port behind
		// the original.
		f.stats.Faults[m.class].Duplicates++
		f.faultInstant("fault.duplicate", m)
		dupDone := max(arrive+tx, f.ingressFree[m.dst]+tx)
		f.ingressFree[m.dst] = dupDone
		f.wireBytes[m.class] += m.bytes
		f.eng.AtCall(dupDone, f.newDelivery(m))
	}
	f.armTimer(m.x, recvDone)
}

// faultInstant emits a timeline instant for an injected fault or a recovery
// action on the source's egress track.
func (f *Fabric) faultInstant(name string, m message) {
	if f.tr == nil {
		return
	}
	f.tr.Instant(f.trEgress[m.src], name, f.eng.Now(),
		obs.Arg{Key: "bytes", Val: m.bytes}, obs.Arg{Key: "dst", Val: int64(m.dst)},
		obs.Arg{Key: "class", Val: int64(m.class)})
}

// armTimer schedules the ack-timeout check for the transmission that just
// started. expect is when the payload's last byte would drain at the
// destination; the ack is expected one latency after that, and Timeout
// cycles of slack are granted beyond it. Each transmission arms exactly one
// timer, matched to the transmission by attempt id so stale timers from
// superseded transmissions are inert.
func (f *Fabric) armTimer(x *xfer, expect sim.Cycle) {
	if x == nil {
		return
	}
	deadline := expect + f.cfg.LatencyCycles + f.cfg.Retry.Timeout
	id := x.attempts
	f.eng.At(deadline, func() { f.timeout(x, id) })
}

// timeout handles an expired ack deadline for transmission id of x.
func (f *Fabric) timeout(x *xfer, id int) {
	if x.acked || x.lost || x.retryPending || id != x.attempts {
		return
	}
	c := x.m.class
	f.stats.Faults[c].Timeouts++
	f.faultInstant("fault.timeout", x.m)
	if x.retries >= f.cfg.Retry.MaxRetries {
		x.lost = true
		f.stats.Faults[c].Lost++
		f.faultInstant("fault.lost", x.m)
		f.fail(&LostTransferError{
			Src: x.m.src, Dst: x.m.dst, Bytes: x.m.bytes, Class: c,
			Attempts: x.attempts, At: f.eng.Now(),
		})
		return
	}
	x.retries++
	f.stats.Faults[c].Retries++
	backoff := f.cfg.Retry.Backoff << (x.retries - 1)
	if f.cfg.Retry.BackoffCap > 0 && (backoff > f.cfg.Retry.BackoffCap || backoff < 0) {
		backoff = f.cfg.Retry.BackoffCap
	}
	if backoff < 0 {
		backoff = 0
	}
	x.retryPending = true
	f.faultInstant("fault.retry", x.m)
	if f.tr != nil {
		// The backoff window is pure recovery delay: the payload sits at the
		// sender waiting out the exponential backoff before re-queueing.
		f.tr.Span(f.trEgress[x.m.src], "retry-backoff", int64(f.eng.Now()), int64(backoff),
			obs.CatArg(obs.CatRetry),
			obs.Arg{Key: "bytes", Val: x.m.bytes}, obs.Arg{Key: "dst", Val: int64(x.m.dst)},
			obs.Arg{Key: "retry", Val: int64(x.retries)})
	}
	f.eng.After(backoff, func() { f.retransmit(x) })
}

// retransmit re-queues x's payload after its backoff. Retransmitted bytes
// are real wire traffic and are accounted in Stats.Bytes; the logical
// message count and the Observer's Sent are not repeated.
func (f *Fabric) retransmit(x *xfer) {
	x.retryPending = false
	if x.acked || x.lost {
		return // the ack raced the backoff window; nothing to resend
	}
	f.stats.Bytes[x.m.class] += x.m.bytes
	if x.control {
		f.transmitControl(x.m)
		return
	}
	// Each retransmission is its own queue visit: re-stamp the queue entry so
	// the latency histogram measures this attempt, not the original send.
	x.m.queued = f.eng.Now()
	f.egressQueue[x.m.src] = append(f.egressQueue[x.m.src], x.m)
	f.tryStart(x.m.src)
}

// QueuedAt returns the number of bulk transfers waiting at src's egress port
// (excluding one in flight), for tests and diagnostics.
func (f *Fabric) QueuedAt(src int) int {
	return len(f.egressQueue[src]) - f.egressHead[src]
}
