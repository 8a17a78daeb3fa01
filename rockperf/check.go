package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/hierarchy"
	"repro/internal/image"
	"repro/rock"
)

// normalized drops a report's provenance (how much of a snapshot it
// reused, whether the incremental lane ran, its observability record):
// everything else must not depend on the path that produced it.
func normalized(r *rock.Report) *rock.Report {
	c := *r
	c.SnapshotReuse = 0
	c.Incremental = false
	c.Stats = nil
	return &c
}

// sameReport reports whether two analyses produced deep-equal results.
func sameReport(a, b *rock.Report) bool {
	return reflect.DeepEqual(normalized(a), normalized(b))
}

// reportJSON is the byte form a served report is compared in.
func reportJSON(r *rock.Report) ([]byte, error) { return json.Marshal(normalized(r)) }

// servedReport decodes a served report and re-encodes it in reportJSON's
// form.
func servedReport(raw json.RawMessage) (*rock.Report, []byte, error) {
	var r rock.Report
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, nil, fmt.Errorf("decoding served report: %w", err)
	}
	b, err := reportJSON(&r)
	return &r, b, err
}

// edgeF1 scores the reconstructed hierarchy per edge against the image's
// ground truth over every primary type, as internal/eval scores the synth
// grid. The analysis never saw meta.
func edgeF1(r *rock.Report, meta *image.Metadata) (float64, error) {
	gt, err := eval.GroundTruthForest(meta)
	if err != nil {
		return 0, err
	}
	var counted []uint64
	for _, tm := range meta.Types {
		if !tm.Secondary {
			counted = append(counted, tm.VTable)
		}
	}
	pred := hierarchy.NewForest(typesOf(r))
	for _, e := range r.Edges {
		if err := pred.SetParent(e.Child, e.Parent); err != nil {
			return 0, fmt.Errorf("reported edge %#x->%#x: %w", e.Child, e.Parent, err)
		}
	}
	return eval.ScoreEdges(gt, pred, counted).F1, nil
}

func typesOf(r *rock.Report) []uint64 {
	out := make([]uint64, len(r.Types))
	for i, t := range r.Types {
		out[i] = t.VTable
	}
	return out
}

// checkTable2 scores each Table 2 program of ins with internal/eval, as
// the golden file was made (eval.Score on core's result, which takes the
// worst case over a family's co-optimal hierarchies), and checks the row
// against golden. The scored result must also reconstruct the hierarchy of
// the reference report (refs[i], the set-up analysis), which every later
// report of the run is checked to equal.
func checkTable2(e *env, ins []*input, refs []*rock.Report, golden map[string]string) {
	for i, in := range ins {
		if in.bench != nil {
			e.record(table2Row(in, refs[i], golden))
		}
	}
}

func table2Row(in *input, ref *rock.Report, golden map[string]string) error {
	res, err := core.Analyze(in.img, core.DefaultConfig())
	if err != nil {
		return fmt.Errorf("%s: %w", in.name, err)
	}
	var edges []rock.Edge
	for _, t := range res.Hierarchy.Nodes() {
		if p, ok := res.Hierarchy.Parent(t); ok {
			edges = append(edges, rock.Edge{Child: t, Parent: p})
		}
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].Child < edges[j].Child })
	if !reflect.DeepEqual(edges, ref.Edges) {
		return fmt.Errorf("%s: the scored analysis and the reference report differ", in.name)
	}
	r, err := eval.Score(in.bench, in.img, in.meta, res)
	if err != nil {
		return err
	}
	// The golden file's layout (internal/eval's goldenRows).
	line := fmt.Sprintf("%-18s types=%-3d resolvable=%-5v without=%.4f/%.4f with=%.4f/%.4f",
		r.Name, r.Types, r.Resolvable, r.WithoutMissing, r.WithoutAdded, r.WithMissing, r.WithAdded)
	if want := golden[r.Name]; line != want {
		return fmt.Errorf("%s: Table 2 row %q, golden %q", in.name, line, want)
	}
	return nil
}

// loadGolden reads the Table 2 golden file, keyed by benchmark name.
func loadGolden(root string) (map[string]string, error) {
	data, err := os.ReadFile(filepath.Join(root, "internal", "eval", "testdata", "table2.golden"))
	if err != nil {
		return nil, err
	}
	out := map[string]string{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		line := strings.TrimRight(sc.Text(), " ")
		if f := strings.Fields(line); len(f) > 0 {
			out[f[0]] = line
		}
	}
	return out, sc.Err()
}

// checkCorpusReport checks one corpus image's report against the
// reference analysis and returns its edge F1.
func checkCorpusReport(in *input, got, ref *rock.Report) (float64, error) {
	var errs []error
	if !sameReport(got, ref) {
		errs = append(errs, fmt.Errorf("%s: report differs from the reference analysis", in.name))
	}
	f1, err := edgeF1(got, in.meta)
	if err != nil {
		errs = append(errs, err)
	}
	return f1, errors.Join(errs...)
}
