package serve

import (
	"sync"
	"testing"
)

// Progress readers parked in eventsFrom while their job terminates must
// see the stream end exactly on the terminal event: never final one event
// early (the terminal state visible before its event has been appended).
// Each round wakes the parked readers with a cell event published just
// before the job finishes, so they race the terminal transition for the
// job's lock.  The race window is narrow; the round count makes a build
// that reopens it fail here with high probability.
func TestEventsFromParkedReaderSeesTerminalEvent(t *testing.T) {
	const readers, rounds = 4, 20000
	for round := 0; round < rounds; round++ {
		j := newJob("j", JobSpec{}, "k")
		var parked, done sync.WaitGroup
		parked.Add(readers)
		done.Add(readers)
		logs := make([][]Event, readers)
		for r := range logs {
			go func() {
				defer done.Done()
				var log []Event
				for {
					evs, final := j.eventsFrom(len(log))
					if len(log) == 0 {
						parked.Done() // "queued" read; the next call parks
					}
					log = append(log, evs...)
					if final {
						logs[r] = log
						return
					}
				}
			}()
		}
		parked.Wait()
		j.publish(Event{Event: "cell", Done: 1, Total: 1})
		j.finish([]byte("{}"), "application/json", "miss", 0)
		done.Wait()
		for _, log := range logs {
			if n := len(log); n != 3 || log[n-1].Event != "done" {
				t.Fatalf("round %d: stream ended as %+v, want queued, cell, done", round, log)
			}
		}
	}
}
