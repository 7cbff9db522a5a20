package snn

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"falvolt/internal/tensor"
)

// Sample is one labelled sequence.
type Sample struct {
	Seq   Sequence
	Label int
}

// batchSequence concatenates the frames of several samples along the batch
// dimension, lazily per timestep. When backed by a batchPool the
// per-timestep concat tensors are recycled across steps; otherwise each At
// call allocates.
type batchSequence struct {
	seqs []Sequence
	t    int
	pool *batchPool
}

// At implements Sequence.
func (b batchSequence) At(t int) *tensor.Tensor {
	first := b.seqs[0].At(t)
	per := first.Len() / first.Shape[0]
	rows := 0
	for _, s := range b.seqs {
		rows += s.At(t).Shape[0]
	}
	var out *tensor.Tensor
	if b.pool != nil {
		out = b.pool.buf(t, first.Shape, rows)
	} else {
		shape := append([]int(nil), first.Shape...)
		shape[0] = rows
		out = tensor.New(shape...)
	}
	off := 0
	for _, s := range b.seqs {
		x := s.At(t)
		copy(out.Data[off:], x.Data)
		off += x.Shape[0] * per
	}
	return out
}

// Steps implements Sequence.
func (b batchSequence) Steps() int { return b.t }

// MakeBatch combines samples into one batched sequence plus labels.
func MakeBatch(samples []Sample) (Sequence, []int) {
	seqs := make([]Sequence, len(samples))
	labels := make([]int, len(samples))
	steps := 0
	for i, s := range samples {
		seqs[i] = s.Seq
		labels[i] = s.Label
		if n := s.Seq.Steps(); n > steps {
			steps = n
		}
	}
	return batchSequence{seqs: seqs, t: steps}, labels
}

// batchPool recycles the per-step batching buffers: the gathered
// sequence/label slices and one concat tensor per timestep. Safe to reuse
// across optimizer steps because no layer retains a timestep's input
// beyond its own Backward within the same step; each concurrent training
// lane owns a private pool.
type batchPool struct {
	seqs   []Sequence
	labels []int
	bufs   []*tensor.Tensor
	shape  []int
	seq    batchSequence // reused so gather returns a pointer (no boxing alloc)
}

// gather assembles samples[idx[0]], samples[idx[1]], ... into one batched
// sequence plus labels, reusing the pool's buffers (the counterpart of
// MakeBatch with zero steady-state allocations).
func (p *batchPool) gather(samples []Sample, idx []int) (Sequence, []int) {
	p.seqs = p.seqs[:0]
	p.labels = p.labels[:0]
	steps := 0
	for _, i := range idx {
		s := samples[i]
		p.seqs = append(p.seqs, s.Seq)
		p.labels = append(p.labels, s.Label)
		if n := s.Seq.Steps(); n > steps {
			steps = n
		}
	}
	p.seq = batchSequence{seqs: p.seqs, t: steps, pool: p}
	return &p.seq, p.labels
}

// buf returns the pooled concat tensor for timestep t shaped like
// frameShape with the batch dimension replaced by rows, allocating only
// when the element count changes (e.g. the ragged final batch).
func (p *batchPool) buf(t int, frameShape []int, rows int) *tensor.Tensor {
	p.shape = append(p.shape[:0], frameShape...)
	p.shape[0] = rows
	n := 1
	for _, d := range p.shape {
		n *= d
	}
	for len(p.bufs) <= t {
		p.bufs = append(p.bufs, nil)
	}
	b := p.bufs[t]
	if b == nil || len(b.Data) != n || len(b.Shape) != len(p.shape) {
		b = tensor.New(p.shape...)
		p.bufs[t] = b
		return b
	}
	copy(b.Shape, p.shape)
	return b
}

// TrainHooks collects the training loop's observation callbacks. Every
// hook runs on the caller's goroutine between optimizer steps; nil hooks
// are skipped, so the zero value trains silently (library default — a
// caller that wants a loss curve installs an AfterEpoch printer).
type TrainHooks struct {
	// AfterStep runs after each optimizer step (e.g. to re-apply prune
	// masks to the shared weights).
	AfterStep func()
	// AfterEpoch runs at the end of each epoch with the mean train loss:
	// progress reporting, and Algorithm 1 re-applies the prune mask here.
	AfterEpoch func(epoch int, trainLoss float64)
}

// TrainConfig controls the training loop.
type TrainConfig struct {
	Epochs    int
	BatchSize int
	LR        float64
	Classes   int
	Loss      Loss
	Rng       *rand.Rand
	// ClipNorm caps the global gradient norm (0 disables clipping).
	ClipNorm float64
	// Hooks observe the loop; the zero value trains silently.
	Hooks TrainHooks
	// Engine is the compute backend training runs on (nil keeps the
	// network's current engine). A non-nil engine is installed on the
	// network via SetEngine and remains in effect after Train returns.
	// Training results are bit-identical on every engine; only
	// wall-clock changes.
	Engine tensor.Backend
	// Replicas is the concurrent lane count of the data-parallel
	// replica engine: each global batch is split into micro-batches
	// dispatched onto up to Replicas training clones of the network
	// (clamped to the engine's worker count), with per-replica gradient
	// accumulation and a deterministic fixed-order reduction into the
	// primary's gradients before each optimizer step. ALL training runs
	// this engine — 0 means one lane, not a different code path — so
	// Replicas never affects results, only wall-clock: loss curves and
	// final weights (dropout included) are bit-identical across 0/1/2/8
	// replicas on any backend.
	Replicas int
	// MicroBatch is the micro-batch size (0 = BatchSize, one
	// micro-batch per step). The micro-batch partition is a function of
	// (BatchSize, MicroBatch) only — never of Replicas or the engine —
	// which is what makes the replica count result-neutral. Unlike
	// Replicas, MicroBatch changes the loss-averaging partition and
	// therefore the results.
	MicroBatch int
}

// Validate fills defaults and rejects unusable configurations.
func (c *TrainConfig) Validate() error {
	if c.Epochs < 0 {
		return fmt.Errorf("snn: negative epochs %d", c.Epochs)
	}
	if c.BatchSize <= 0 {
		return fmt.Errorf("snn: batch size must be positive, got %d", c.BatchSize)
	}
	if c.Classes <= 0 {
		return fmt.Errorf("snn: classes must be positive, got %d", c.Classes)
	}
	if c.LR <= 0 {
		return fmt.Errorf("snn: learning rate must be positive, got %g", c.LR)
	}
	if c.Replicas < 0 {
		return fmt.Errorf("snn: negative replicas %d", c.Replicas)
	}
	if c.MicroBatch < 0 {
		return fmt.Errorf("snn: negative micro-batch %d", c.MicroBatch)
	}
	if c.Loss == nil {
		c.Loss = MSERate{}
	}
	if c.Rng == nil {
		c.Rng = rand.New(rand.NewSource(0))
	}
	return nil
}

// Train runs the training loop over samples, updating net in place, and
// returns the mean training loss of the final epoch. Every
// configuration runs the data-parallel replica engine (see
// trainReplicas) — the zero config is one lane with one micro-batch per
// step — so the trained result is a pure function of the
// result-affecting knobs (Epochs, BatchSize, MicroBatch, LR, ClipNorm,
// Loss, Rng), never of Replicas or Engine.
func Train(net *Network, samples []Sample, cfg TrainConfig) (float64, error) {
	if err := cfg.Validate(); err != nil {
		return 0, err
	}
	if len(samples) == 0 {
		return 0, fmt.Errorf("snn: no training samples")
	}
	if cfg.Engine != nil {
		net.SetEngine(cfg.Engine)
	}
	return trainReplicas(net, samples, cfg)
}

// replicaLane is one concurrent training lane: a training clone of the
// primary network plus the lane's private batching buffers and the
// clone's layer handles the engine needs direct access to.
type replicaLane struct {
	net    *Network
	pool   *batchPool
	params []*Param       // index-aligned with the primary's Params()
	drops  []*Dropout     // clone dropout layers in network order
	bns    []*BatchNorm2D // clone batch-norm layers in network order
}

func newReplicaLane(primary *Network) *replicaLane {
	n := primary.TrainingClone()
	lane := &replicaLane{net: n, pool: &batchPool{}, params: n.Params()}
	for _, l := range n.Layers {
		switch v := l.(type) {
		case *Dropout:
			lane.drops = append(lane.drops, v)
		case *BatchNorm2D:
			lane.bns = append(lane.bns, v)
		}
	}
	return lane
}

// mbResult holds one micro-batch's training contribution — harvested from
// whichever lane happened to run it, then reduced in micro-batch index
// order. The buffers are Into-style: the lane writes only this slot, so a
// device-offload backend can stage replica gradients in its own arenas
// and copy them here without touching the primary until the reduction.
type mbResult struct {
	loss    float64          // micro-batch loss, weighted by its batch share
	grads   []*tensor.Tensor // one per Param, index-aligned with Params()
	bnMeans [][][]float64    // per BN layer: per-timestep per-channel means
	bnVars  [][][]float64    // per BN layer: per-timestep per-channel variances
}

// trainReplicas is the data-parallel training engine — the only
// training loop; Train routes every configuration here. Each global
// batch is partitioned into fixed micro-batches (a function of
// BatchSize and MicroBatch only), dispatched onto training clones over
// up to cfg.Replicas concurrent lanes (minimum one), and the
// per-micro-batch gradients are summed into the primary's Param
// gradients in micro-batch index order — never lane completion order —
// before each optimizer step. Because the partition, the
// per-micro-batch float work (dropout masks included: see deriveSeed)
// and the reduction order are all independent of the lane count,
// results are bit-identical across replica counts and backends; only
// wall-clock changes. Per-micro-batch losses are weighted by their
// share of the batch, and batch-norm running statistics logged by the
// clones are replayed on the primary in the same fixed order (see
// BatchNorm2D.ReplayStats).
func trainReplicas(net *Network, samples []Sample, cfg TrainConfig) (float64, error) {
	eng := net.Engine()
	params := net.Params()
	opt := NewAdam(params, cfg.LR)

	mbSize := cfg.MicroBatch
	if mbSize <= 0 || mbSize > cfg.BatchSize {
		mbSize = cfg.BatchSize
	}
	maxMB := (cfg.BatchSize + mbSize - 1) / mbSize
	lanes := max(cfg.Replicas, 1)
	lanes = min(lanes, eng.Workers(), maxMB)
	lanes = max(lanes, 1)

	reps := make([]*replicaLane, lanes)
	for i := range reps {
		reps[i] = newReplicaLane(net)
	}
	var bns []*BatchNorm2D
	for _, l := range net.Layers {
		if bn, ok := l.(*BatchNorm2D); ok {
			bns = append(bns, bn)
		}
	}

	// One result slot per micro-batch of a full batch; the gradient
	// buffers are recycled every step.
	results := make([]*mbResult, maxMB)
	for i := range results {
		g := make([]*tensor.Tensor, len(params))
		for pi, p := range params {
			g[pi] = tensor.New(p.Value.Shape...)
		}
		results[i] = &mbResult{grads: g}
	}

	// Dropout clones need a derived rng per (step, micro-batch, layer);
	// the per-step seed is only drawn when an active dropout layer
	// exists, so dropout-free training consumes cfg.Rng for batch
	// shuffling only (preserving the shuffle stream of the pre-engine
	// serial loop, which never drew from cfg.Rng inside a step).
	activeDropout := false
	for _, l := range net.Layers {
		if d, ok := l.(*Dropout); ok && d.P > 0 {
			activeDropout = true
		}
	}

	idx := make([]int, len(samples))
	for i := range idx {
		idx[i] = i
	}
	var lastLoss float64
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		cfg.Rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		var epochLoss float64
		batches := 0
		for start := 0; start < len(idx); start += cfg.BatchSize {
			end := min(start+cfg.BatchSize, len(idx))
			bidx := idx[start:end]
			numMB := (len(bidx) + mbSize - 1) / mbSize
			// One dropout seed per optimizer step, drawn from the shuffle
			// rng in step order so the whole run is a deterministic
			// function of cfg.Rng regardless of lane scheduling.
			var stepSeed int64
			if activeDropout {
				stepSeed = cfg.Rng.Int63()
			}

			runLanes(lanes, numMB, func(slot, mb int) {
				lane := reps[slot]
				lo := mb * mbSize
				hi := min(lo+mbSize, len(bidx))
				seq, labels := lane.pool.gather(samples, bidx[lo:hi])
				target := OneHot(labels, cfg.Classes)
				if activeDropout {
					for di, d := range lane.drops {
						d.SetRng(rand.New(rand.NewSource(deriveSeed(stepSeed, int64(mb), int64(di)))))
					}
				}
				lane.net.ResetState()
				for _, p := range lane.params {
					p.ZeroGrad()
				}
				rate := lane.net.Forward(seq, true)
				loss, grad := cfg.Loss.Loss(rate, target)
				w := float64(hi-lo) / float64(len(bidx))
				if w != 1 {
					grad.Scale(float32(w))
				}
				lane.net.Backward(grad)

				res := results[mb]
				res.loss = w * loss
				for pi, p := range lane.params {
					copy(res.grads[pi].Data, p.Grad.Data)
				}
				res.bnMeans = res.bnMeans[:0]
				res.bnVars = res.bnVars[:0]
				for _, bn := range lane.bns {
					m, v := bn.DrainStats()
					res.bnMeans = append(res.bnMeans, m)
					res.bnVars = append(res.bnVars, v)
				}
			})

			// Deterministic fixed-order reduction: micro-batch index
			// order, never lane completion order — float addition does
			// not associate, so the order is part of the contract.
			opt.ZeroGrad()
			var stepLoss float64
			for mb := 0; mb < numMB; mb++ {
				res := results[mb]
				stepLoss += res.loss
				for pi, p := range params {
					p.Grad.AddInPlace(res.grads[pi])
				}
				for bi, bn := range bns {
					bn.ReplayStats(res.bnMeans[bi], res.bnVars[bi])
				}
			}
			if cfg.ClipNorm > 0 {
				ClipGradNorm(params, cfg.ClipNorm)
			}
			opt.Step()
			if cfg.Hooks.AfterStep != nil {
				cfg.Hooks.AfterStep()
			}
			epochLoss += stepLoss
			batches++
		}
		lastLoss = epochLoss / float64(batches)
		if cfg.Hooks.AfterEpoch != nil {
			cfg.Hooks.AfterEpoch(epoch, lastLoss)
		}
	}
	return lastLoss, nil
}

// runLanes dispatches n micro-batches over lanes concurrent workers with
// a shared cursor (slots are dense in [0, lanes)). One lane runs in
// micro-batch order on the caller's goroutine — the serial reference
// order. Which lane runs which micro-batch never matters: each
// micro-batch writes only its own result slot and the reduction happens
// afterwards in index order.
func runLanes(lanes, n int, fn func(slot, i int)) {
	if lanes > n {
		lanes = n
	}
	if lanes <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	wg.Add(lanes)
	for s := 0; s < lanes; s++ {
		go func(slot int) {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= n {
					return
				}
				fn(slot, i)
			}
		}(s)
	}
	wg.Wait()
}

// deriveSeed hashes (step seed, micro-batch index, dropout ordinal) into
// an independent rng seed (splitmix64 finalizer), making dropout masks a
// pure function of the micro-batch identity — independent of the lane
// that runs it and of the replica count.
func deriveSeed(step, mb, ordinal int64) int64 {
	z := uint64(step) ^ 0x9e3779b97f4a7c15*uint64(mb+1) ^ 0xd1b54a32d192ed03*uint64(ordinal+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// Evaluate returns classification accuracy of net on samples, running in
// inference mode (which uses any installed systolic deployment). On a
// multi-worker engine the batches are sharded across inference replicas
// of the network (see EvaluateWith).
func Evaluate(net *Network, samples []Sample, batchSize int) float64 {
	return EvaluateWith(nil, net, samples, batchSize)
}

// EvaluateWith is Evaluate on an explicit engine (nil selects the
// network's engine). A non-nil engine is installed on the network for
// the duration of the call and the previous engine is restored before
// returning, so all layer compute — not just batch sharding — runs on
// it. When the engine has more than one worker and there is more than
// one batch, whole batches are dispatched concurrently onto per-lane
// inference clones of net — batch-parallel inference. Layer parameters
// and any systolic deployment are shared by the clones (Array.Forward is
// safe for concurrent calls); per-batch correct counts are summed, so
// the accuracy is identical to the serial order.
func EvaluateWith(eng tensor.Backend, net *Network, samples []Sample, batchSize int) float64 {
	if len(samples) == 0 {
		return 0
	}
	if batchSize <= 0 {
		batchSize = 32
	}
	if eng == nil {
		eng = net.Engine()
	} else if eng != net.eng {
		prev := net.eng
		net.SetEngine(eng)
		defer net.SetEngine(prev)
	}
	numBatches := (len(samples) + batchSize - 1) / batchSize
	evalBatch := func(n *Network, b int) int {
		start := b * batchSize
		end := start + batchSize
		if end > len(samples) {
			end = len(samples)
		}
		seq, labels := MakeBatch(samples[start:end])
		n.ResetState()
		rate := n.Forward(seq, false)
		correct := 0
		for i, l := range labels {
			if rate.Argmax(i) == l {
				correct++
			}
		}
		return correct
	}

	// Inference replicas share deployed systolic arrays, which is fine
	// for stateless fault classes but not for time-dependent ones: each
	// batch must drive the array through its own timestep sequence, and
	// concurrent SetTimestep calls would interleave. Serialize instead.
	if eng.Workers() <= 1 || numBatches <= 1 || net.timeFaulted() {
		correct := 0
		for b := 0; b < numBatches; b++ {
			correct += evalBatch(net, b)
		}
		return float64(correct) / float64(len(samples))
	}

	lanes := eng.Workers()
	if lanes > numBatches {
		lanes = numBatches
	}
	replicas := make([]*Network, lanes)
	for i := range replicas {
		replicas[i] = net.InferenceClone()
	}
	var correct atomic.Int64
	eng.Map(numBatches, func(slot, b int) {
		correct.Add(int64(evalBatch(replicas[slot], b)))
	})
	return float64(correct.Load()) / float64(len(samples))
}
