package main

import (
	"testing"

	"rcbr/internal/switchfab"
)

func TestAddPorts(t *testing.T) {
	sw := switchfab.New()
	if err := addPorts(sw, "1:155e6, 2:622e6,"); err != nil {
		t.Fatal(err)
	}
	for id, want := range map[int]float64{1: 155e6, 2: 622e6} {
		_, capacity, err := sw.PortLoad(id)
		if err != nil || capacity != want {
			t.Fatalf("port %d: %v, %v", id, capacity, err)
		}
	}
}

func TestAddPortsErrors(t *testing.T) {
	for name, spec := range map[string]string{
		"no colon":  "1",
		"bad id":    "x:100",
		"bad cap":   "1:fast",
		"zero cap":  "1:0",
		"duplicate": "1:10,1:20",
	} {
		sw := switchfab.New()
		if err := addPorts(sw, spec); err == nil {
			t.Errorf("%s (%q): accepted", name, spec)
		}
	}
}
