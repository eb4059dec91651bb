package statediff

import (
	"strings"
	"testing"
)

type node struct {
	n     int
	name  string
	f     float64
	on    bool
	next  *node
	page  *[4]byte
	pages []*[4]byte
	list  []int
	m     map[int]bool
	v     any
	fn    func()
}

func hello() {}

func TestDiff(t *testing.T) {
	want := &node{n: 1, name: "a", f: 0.5, on: true, v: 3, fn: hello}
	want.next = want // a cycle
	same := func() *node {
		got := &node{n: 1, name: "a", f: 0.5, on: true, v: 3, fn: hello,
			page: new([4]byte), pages: []*[4]byte{new([4]byte), nil}, list: []int{}, m: map[int]bool{}}
		got.next = got
		return got
	}
	if d := Diff(want, same()); len(d) > 0 {
		t.Errorf("kept, cleared storage against none: %v", d)
	}
	for _, tc := range []struct {
		change func(*node)
		path   string
	}{
		{func(g *node) { g.n = 2 }, ".n: 2, want 1"},
		{func(g *node) { g.name = "b" }, `.name: "b", want "a"`},
		{func(g *node) { g.f = 1 }, ".f: 1, want 0.5"},
		{func(g *node) { g.on = false }, ".on: false, want true"},
		{func(g *node) { g.page[2] = 1 }, ".page: nil on one side only"},
		{func(g *node) { g.pages[0][1] = 1 }, ".pages: nil on one side only"},
		{func(g *node) { g.m[3] = false }, ".m: nil on one side only"},
		{func(g *node) { g.v = "3" }, ".v: a string, want a int"},
		{func(g *node) { g.v = nil }, ".v: nil on one side only"},
		{func(g *node) { g.fn = nil }, ".fn: func"},
		{func(g *node) { g.next = &node{n: 1} }, ".name"},
	} {
		got := same()
		tc.change(got)
		d := Diff(want, got)
		if len(d) == 0 || !strings.Contains(strings.Join(d, "\n"), tc.path) {
			t.Errorf("want a difference at %s, got %v", tc.path, d)
		}
	}
	a, b := &node{list: []int{1, 2}, m: map[int]bool{1: true}}, &node{list: []int{1}, m: map[int]bool{2: true}}
	if d := Diff(a, b); len(d) != 2 || !strings.Contains(d[0], "length 1, want 2") || !strings.Contains(d[1], "[1]: missing") {
		t.Errorf("lengths and keys: %v", d)
	}
	if same := Same(want, &node{n: 1, name: "b", next: want}); strings.Join(same, ",") != "n,next,page,pages,list,m" {
		t.Errorf("Same = %v", same)
	}
}
