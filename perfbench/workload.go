package main

import (
	"bytes"
	"fmt"

	"rai/internal/auth"
	"rai/internal/cnn"
	"rai/internal/core"
	"rai/internal/project"
	"rai/internal/vfs"
	"rai/internal/workload"
)

// Workload names.
const (
	wlCourse   = "course"
	wlIterate  = "iterate"
	wlDeadline = "deadline"
)

var workloadNames = []string{wlCourse, wlIterate, wlDeadline}

// Turn kinds of one submission.
const (
	turnCourse    = "course"    // a course-model submission, packed as .tar.bz2
	turnCold      = "cold"      // iterate: first upload of the project
	turnEdit      = "edit"      // iterate: one line changed since the last turn
	turnUnchanged = "unchanged" // iterate: identical tree re-run
)

// unchangedShare is the probability that an iterate turn re-runs the
// tree unchanged instead of editing one line. It sits below one half so
// the latency median falls inside the cache-miss mode rather than on
// the boundary between the hit and miss modes.
const unchangedShare = 0.4

// planLength is how many submissions each student's plan holds; the
// plan wraps around if a run outlasts it.
const planLength = 4000

// submission is one planned client action.
type submission struct {
	kind string // core.KindRun or core.KindSubmit
	spec project.Spec
	turn string
	// line is the weights line an edit turn rewrites, numbered across
	// all weight files.
	line int
}

// plan is one student's scripted behaviour for a run.
type plan struct {
	creds auth.Credentials
	subs  []submission
	// tree is the iterate project (nil for the course workloads).
	tree *vfs.FS
}

// rng is a splitmix64 generator: the benchmark's only randomness, so a
// seed fixes every input.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *rng) float() float64 { return float64(r.next()>>11) / float64(1<<53) }

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// studentCreds derives the students' identities from the seed.
func studentCreds(seed uint64, n int) []auth.Credentials {
	r := &rng{s: seed ^ 0xC0FFEE}
	creds := make([]auth.Credentials, n)
	for i := range creds {
		creds[i] = auth.Credentials{
			UserName:  fmt.Sprintf("student%02d", i+1),
			AccessKey: fmt.Sprintf("AK%016x", r.next()),
			SecretKey: fmt.Sprintf("SK%016x%016x", r.next(), r.next()),
		}
	}
	return creds
}

// coursePlans deals a seeded shuffle of the generated course's
// submissions round-robin to the students, so every student sees the
// course's mix of kernel levels, injected bugs and final submissions.
// lastTwoWeeks restricts the draw to the final fortnight.
func coursePlans(seed uint64, creds []auth.Credentials, lastTwoWeeks bool) []plan {
	cfg := workload.Fall2016()
	cfg.Seed = seed
	course := workload.Generate(cfg)
	subs := course.Submissions
	if lastTwoWeeks {
		subs = course.LastTwoWeeks()
	}
	r := &rng{s: seed}
	order := make([]int, len(subs))
	for i := range order {
		order[i] = i
	}
	for i := len(order) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		order[i], order[j] = order[j], order[i]
	}
	plans := make([]plan, len(creds))
	for i := range plans {
		plans[i].creds = creds[i]
	}
	for k := 0; k < len(order) && k < planLength*len(creds); k++ {
		s := subs[order[k]]
		p := &plans[k%len(creds)]
		p.subs = append(p.subs, submission{kind: s.Kind, spec: s.Spec, turn: turnCourse})
	}
	return plans
}

// iteratePlans gives each student one project and a seeded sequence of
// turns: a cold upload, then one-line edits and unchanged re-runs.
func iteratePlans(seed uint64, creds []auth.Credentials) ([]plan, error) {
	plans := make([]plan, len(creds))
	for i := range plans {
		r := &rng{s: seed*31 + uint64(i) + 1}
		spec := project.Spec{Impl: cnn.ImplIm2col, Tuning: 1 + r.float(), Team: creds[i].UserName}
		tree, err := iterateTree(spec, r)
		if err != nil {
			return nil, err
		}
		plans[i] = plan{creds: creds[i], tree: tree}
		plans[i].subs = append(plans[i].subs, submission{kind: core.KindRun, spec: spec, turn: turnCold})
		for len(plans[i].subs) < planLength {
			s := submission{kind: core.KindRun, spec: spec, turn: turnEdit, line: r.intn(weightFiles * weightLines)}
			if r.float() < unchangedShare {
				s.turn = turnUnchanged
			}
			plans[i].subs = append(plans[i].subs, s)
		}
	}
	return plans, nil
}

// The iterate project carries its weights in many small headers, each
// below cas.MinChunk and so exactly one chunk: an edit re-sends one
// chunk of a fixed size. In one large file the edited chunk's size, and
// with it the upload, would vary with where content-defined cuts fall.
const (
	weightFiles = 24
	weightLines = 32 // about 1.8 KB per file
)

func weightPath(file int) string { return fmt.Sprintf("/p/src/weights%02d.h", file) }

// iterateTree renders the project plus its seeded weight headers.
func iterateTree(spec project.Spec, r *rng) (*vfs.FS, error) {
	fs := vfs.New()
	if err := project.WriteTo(fs, "/p", spec); err != nil {
		return nil, err
	}
	for f := 0; f < weightFiles; f++ {
		var w bytes.Buffer
		for i := 0; i < weightLines; i++ {
			fmt.Fprintf(&w, "static const float w%02d_%02d = %+.9ff; // %s\n", f, i, r.float()-0.5, spec.Team)
		}
		if err := fs.WriteFile(weightPath(f), w.Bytes()); err != nil {
			return nil, err
		}
	}
	return fs, nil
}

// editLine rewrites one weights line in place; turn makes every edit
// unique, so an edited tree is never one built before.
func editLine(fs *vfs.FS, line, turn int) error {
	path := weightPath(line / weightLines)
	data, err := fs.ReadFile(path)
	if err != nil {
		return err
	}
	lines := bytes.Split(data, []byte("\n"))
	lines[line%weightLines] = []byte(fmt.Sprintf("static const float e%02d_%02d = %+9d.0f; // edit", line/weightLines, line%weightLines, turn))
	return fs.WriteFile(path, bytes.Join(lines, []byte("\n")))
}
