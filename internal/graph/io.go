package graph

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
)

// DOT writes the graph in Graphviz DOT format. Node labels include the
// weight; an optional part assignment (nil allowed) colors nodes by part so
// partitions can be inspected visually.
func (g *DAG) DOT(w io.Writer, name string, part []int32) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "digraph %q {\n  rankdir=TB;\n  node [shape=box, style=filled];\n", name)
	palette := []string{
		"#a6cee3", "#1f78b4", "#b2df8a", "#33a02c",
		"#fb9a99", "#e31a1c", "#fdbf6f", "#ff7f00",
		"#cab2d6", "#6a3d9a", "#ffff99", "#b15928",
	}
	for i := 0; i < g.Len(); i++ {
		color := "#dddddd"
		partNote := ""
		if part != nil && i < len(part) && part[i] >= 0 {
			color = palette[int(part[i])%len(palette)]
			partNote = fmt.Sprintf("\\np%d", part[i])
		}
		label := g.Label(NodeID(i))
		if label == "" {
			label = fmt.Sprintf("n%d", i)
		}
		fmt.Fprintf(bw, "  n%d [label=\"%s\\nw=%d%s\", fillcolor=%q];\n",
			i, escapeDOT(label), g.nodeW[i], partNote, color)
	}
	for from := range g.succ {
		for _, h := range g.succ[from] {
			fmt.Fprintf(bw, "  n%d -> n%d [label=\"%d\"];\n", from, h.to, h.w)
		}
	}
	fmt.Fprintln(bw, "}")
	return bw.Flush()
}

func escapeDOT(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

// jsonGraph is the serialized form.
type jsonGraph struct {
	Nodes []jsonNode `json:"nodes"`
	Edges []jsonEdge `json:"edges"`
}

type jsonNode struct {
	Label  string `json:"label,omitempty"`
	Weight int64  `json:"weight"`
}

type jsonEdge struct {
	From   int32 `json:"from"`
	To     int32 `json:"to"`
	Weight int64 `json:"weight"`
}

// MarshalJSON serializes the DAG.
func (g *DAG) MarshalJSON() ([]byte, error) {
	jg := jsonGraph{Nodes: make([]jsonNode, g.Len())}
	for i := 0; i < g.Len(); i++ {
		jg.Nodes[i] = jsonNode{Label: g.Label(NodeID(i)), Weight: g.nodeW[i]}
	}
	for _, e := range g.EdgeList() {
		jg.Edges = append(jg.Edges, jsonEdge{From: int32(e.From), To: int32(e.To), Weight: e.Weight})
	}
	return json.Marshal(jg)
}

// UnmarshalJSON deserializes into the receiver, replacing its contents.
func (g *DAG) UnmarshalJSON(data []byte) error {
	var jg jsonGraph
	if err := json.Unmarshal(data, &jg); err != nil {
		return err
	}
	*g = DAG{}
	for _, n := range jg.Nodes {
		if n.Weight < 0 {
			return fmt.Errorf("graph: negative node weight %d", n.Weight)
		}
		g.AddNode(n.Label, n.Weight)
	}
	for _, e := range jg.Edges {
		if e.From < 0 || int(e.From) >= g.Len() || e.To < 0 || int(e.To) >= g.Len() {
			return fmt.Errorf("graph: edge (%d,%d) out of range", e.From, e.To)
		}
		if e.From == e.To {
			return fmt.Errorf("graph: self-loop on %d", e.From)
		}
		if e.Weight < 0 {
			return fmt.Errorf("graph: negative edge weight %d", e.Weight)
		}
		// A repeated edge adds its weight to the first (see AddEdge).
		if w := g.EdgeWeight(NodeID(e.From), NodeID(e.To)); e.Weight > math.MaxInt64-w {
			return fmt.Errorf("graph: edge (%d,%d) weights overflow", e.From, e.To)
		}
		g.AddEdge(NodeID(e.From), NodeID(e.To), e.Weight)
	}
	return nil
}
