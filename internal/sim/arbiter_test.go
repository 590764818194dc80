package sim

import (
	"math/rand"
	"testing"
)

// strictPick mirrors nic.StrictArbiter: first index of the minimum class.
type strictPick struct{}

func (strictPick) Pick(q []ReqMeta) int {
	best := 0
	for i := 1; i < len(q); i++ {
		if q[i].Class < q[best].Class {
			best = i
		}
	}
	return best
}

// refPriorityServer is an independent single-slot reference model of
// strict-priority service: waiting requests are kept sorted by class
// (stable within a class, so FIFO among equals) and served from the front.
type refPriorityServer struct {
	eng   *Engine
	busy  bool
	queue []refReq
}

type refReq struct {
	service Duration
	class   int
	done    func()
}

func (s *refPriorityServer) Submit(service Duration, class int, done func()) {
	req := refReq{service: service, class: class, done: done}
	if !s.busy {
		s.start(req)
		return
	}
	i := len(s.queue)
	for i > 0 && s.queue[i-1].class > class {
		i--
	}
	s.queue = append(s.queue, refReq{})
	copy(s.queue[i+1:], s.queue[i:])
	s.queue[i] = req
}

func (s *refPriorityServer) start(req refReq) {
	s.busy = true
	s.eng.After(req.service, func() {
		s.busy = false
		if req.done != nil {
			req.done()
		}
		if len(s.queue) > 0 && !s.busy {
			next := s.queue[0]
			s.queue = s.queue[1:]
			s.start(next)
		}
	})
}

// The strategy seam's core equivalence: an arbitrated server whose arbiter
// picks the first index of the minimum class over the FIFO arrival queue
// produces exactly the schedule of a sorted-insert + pop-front queue — for
// any submission pattern. Every legacy golden rests on this.
func TestArbitratedStrictMatchesPriorityServer(t *testing.T) {
	type submitter interface {
		Submit(service Duration, class int, done func())
	}
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) + 1))

		type sub struct {
			at      Duration
			service Duration
			class   int
		}
		subs := make([]sub, 200)
		for i := range subs {
			subs[i] = sub{
				at:      Duration(rng.Intn(5000)) * Nanosecond,
				service: Duration(1+rng.Intn(300)) * Nanosecond,
				class:   rng.Intn(3),
			}
		}

		run := func(mk func(*Engine) submitter) []Time {
			eng := NewEngine(7)
			s := mk(eng)
			done := make([]Time, len(subs))
			for i, sb := range subs {
				i, sb := i, sb
				eng.At(Time(0).Add(sb.at), func() {
					s.Submit(sb.service, sb.class, func() { done[i] = eng.Now() })
				})
			}
			eng.Run()
			return done
		}

		prio := run(func(e *Engine) submitter { return &refPriorityServer{eng: e} })
		arb := run(func(e *Engine) submitter { return NewArbitratedServer(e, "arb", 1, strictPick{}) })
		for i := range prio {
			if prio[i] != arb[i] {
				t.Fatalf("trial %d: completion %d differs: reference=%v arbitrated=%v", trial, i, prio[i], arb[i])
			}
		}
	}
}

// SubmitMeta on an arbitrated server keeps queue and metadata index-aligned
// across out-of-order removal, and tenants actually steer the pick.
func TestArbitratedTenantPick(t *testing.T) {
	eng := NewEngine(1)
	// An arbiter that always prefers tenant 1's oldest request.
	pick := func(q []ReqMeta) int {
		for i := range q {
			if q[i].Tenant == 1 {
				return i
			}
		}
		return 0
	}
	s := NewArbitratedServer(eng, "arb", 1, pickFunc(pick))
	var order []int
	for i := 0; i < 6; i++ {
		i := i
		tenant := i % 2
		s.SubmitMeta(10*Nanosecond, ReqMeta{Tenant: tenant, Bytes: 64}, func() {
			order = append(order, i)
		})
	}
	eng.Run()
	// Request 0 starts immediately (free slot); afterwards all tenant-1
	// requests (1, 3, 5) drain before tenant-0's (2, 4).
	want := []int{0, 1, 3, 5, 2, 4}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("service order = %v, want %v", order, want)
		}
	}
}

type pickFunc func(q []ReqMeta) int

func (f pickFunc) Pick(q []ReqMeta) int { return f(q) }
