package prefetch

import (
	"domino/internal/mem"
)

// Stack composes two prefetchers for spatio-temporal prefetching (Section
// V-E): a primary spatial prefetcher (VLDP in the paper) and a secondary
// temporal prefetcher (Domino) that "trains and prefetches on misses that
// [the primary] cannot capture".
//
// Event routing:
//   - real misses are, by definition, captured by neither component, so
//     both see them;
//   - a prefetch hit is delivered only to the component that issued the
//     covering prefetch (identified by the candidate Tag), so the
//     secondary's triggering-event stream is exactly its own misses and
//     hits — the primary-covered misses disappear from it.
type Stack struct {
	primary, secondary Prefetcher
	name               string
	out                []Candidate // reused by the next Trigger
}

// NewStack composes primary and secondary. The component names must
// differ; candidates are re-tagged with the issuing component's name.
func NewStack(primary, secondary Prefetcher) *Stack {
	return &Stack{
		primary:   primary,
		secondary: secondary,
		name:      primary.Name() + "+" + secondary.Name(),
	}
}

// Name returns "<primary>+<secondary>".
func (s *Stack) Name() string { return s.name }

// Trigger implements Prefetcher. Each component's candidates are copied
// out, re-tagged, before the other component is triggered, so neither
// component's reused result slice is written to or held past its own
// next Trigger.
func (s *Stack) Trigger(ev Event) []Candidate {
	s.out = s.out[:0]
	switch {
	case ev.Kind == mem.EventMiss:
		s.out = appendTagged(s.out, s.primary.Trigger(ev), s.primary.Name())
		s.out = appendTagged(s.out, s.secondary.Trigger(ev), s.secondary.Name())
	case ev.Tag == s.primary.Name():
		s.out = appendTagged(s.out, s.primary.Trigger(ev), s.primary.Name())
	default:
		s.out = appendTagged(s.out, s.secondary.Trigger(ev), s.secondary.Name())
	}
	return s.out
}

func appendTagged(dst, cs []Candidate, tag string) []Candidate {
	for _, c := range cs {
		c.Tag = tag
		dst = append(dst, c)
	}
	return dst
}
