package sim

import "fmt"

// Drain-audit primitives: an end-of-run leak check needs a pending count
// that ignores cancelled entries (Pending counts them until their queue
// slot is reaped, so a lossless run that armed and cancelled retransmit
// timers would look busy forever).

// LivePending counts scheduled events that have not fired and have not been
// cancelled. Contrast Pending, which counts cancelled entries until their
// queue slot is reaped.
func (e *Engine) LivePending() int {
	n := 0
	for _, ent := range e.heap {
		if !e.slots[ent.slot].canceled {
			n++
		}
	}
	for _, ent := range e.batch[e.batchIdx:] {
		if !e.slots[ent.slot].canceled {
			n++
		}
	}
	return n
}

// DrainCheck returns an error when live events remain queued. Call it after
// a run that is supposed to have quiesced; a non-nil result means some
// component leaked a timer or a self-rescheduling callback past the end of
// the run.
func (e *Engine) DrainCheck() error {
	if n := e.LivePending(); n > 0 {
		return fmt.Errorf("sim: %d live event(s) still pending at %v", n, e.now)
	}
	return nil
}
