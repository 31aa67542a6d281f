package prefetch_test

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/prefetch"
)

// echo is a minimal custom component: on every miss it predicts the next
// block of the segment. Peek carries the whole prediction (it must be free
// of side effects); IssueTo simply reuses it.
type echo struct{}

func (echo) Name() string          { return "echo" }
func (echo) Train(prefetch.Access) {}
func (echo) StorageBits() int      { return 0 }
func (echo) Reset()                {}

func (e echo) Issue(a prefetch.Access) []addr.BlockNum { return e.IssueTo(a, nil) }

func (e echo) IssueTo(a prefetch.Access, dst []addr.BlockNum) []addr.BlockNum {
	return e.Peek(a, dst)
}

func (echo) Peek(a prefetch.Access, dst []addr.BlockNum) []addr.BlockNum {
	off := a.Block.SegOffset()
	if !a.Miss || off+1 >= addr.SegmentBlocks {
		return dst
	}
	return append(dst, a.Page().Block(addr.OffsetOf(a.Block.Channel(), off+1)))
}

// ExampleNewTournament registers a custom component in a tournament next to
// a built-in one. Component 0 (here the stride predictor) is the priority
// fallback; the stride table is cold, so the trigger falls through to the
// custom component.
func ExampleNewTournament() {
	tour := prefetch.NewTournament(
		prefetch.TournamentConfig{},
		prefetch.NewStride(64, 2), // component 0: priority/fallback
		echo{},                    // custom entrant
	)
	a := prefetch.Access{
		Block: addr.PageNum(3).Block(addr.OffsetOf(0, 4)),
		Miss:  true,
	}
	tour.Train(a)
	targets := tour.IssueTo(a, nil)
	fmt.Printf("%s issued %d block(s) at offset %d via %s\n",
		tour.Name(), len(targets), targets[0].SegOffset(), tour.Origin())
	// Output: tournament issued 1 block(s) at offset 5 via echo
}
