package main

import (
	"fmt"
	"net/http"
	"strings"
	"testing"

	"transn/internal/graph"
	"transn/internal/load"
)

func knnBody(k int, nodes ...string) string {
	var nb []string
	for i, n := range nodes {
		nb = append(nb, fmt.Sprintf(`{"node":%q,"similarity":%v}`, n, 0.9-0.01*float64(i)))
	}
	return fmt.Sprintf(`{"schema":"transn.serve/v1","node":"q","k":%d,"neighbors":[%s]}`, k, strings.Join(nb, ","))
}

func TestValidateRejectsCorruptBodies(t *testing.T) {
	names := map[string]graph.NodeID{"q": 0}
	var ten []string
	for i := 1; i <= knnK; i++ {
		n := fmt.Sprintf("n%d", i)
		names[n] = graph.NodeID(i)
		ten = append(ten, n)
	}
	vec := &request{ep: load.EndpointTranslate, method: http.MethodGet, target: "/v1/translate", want: []float64{1.5, -0.25, 3e-7}}
	knn := &request{ep: load.EndpointKNN, method: http.MethodGet, target: "/v1/knn", node: "q"}
	reload := &reloadRequest

	good := []struct {
		r    *request
		body string
	}{
		{vec, `{"embedding":[1.5,-0.25,3e-7]}`},
		{knn, knnBody(knnK, ten...)},
		{reload, `{"schema":"transn.serve/v1","generation":2}`},
	}
	for _, g := range good {
		if err := validate(g.r, http.StatusOK, []byte(g.body), names); err != nil {
			t.Fatalf("valid %s body rejected: %v", g.r.ep, err)
		}
	}

	outOfOrder := strings.Replace(knnBody(knnK, ten...), `"similarity":0.9}`, `"similarity":0.5}`, 1)
	bad := []struct {
		name   string
		r      *request
		status int
		body   string
	}{
		{"status", vec, http.StatusInternalServerError, `{"embedding":[1.5,-0.25,3e-7]}`},
		{"vector value", vec, http.StatusOK, `{"embedding":[1.5,-0.25,3.0000001e-7]}`},
		{"vector length", vec, http.StatusOK, `{"embedding":[1.5,-0.25]}`},
		{"truncated", vec, http.StatusOK, `{"embedding":[1.5,-0.2`},
		{"knn short", knn, http.StatusOK, knnBody(knnK-1, ten[:knnK-1]...)},
		{"knn repeated", knn, http.StatusOK, knnBody(knnK, append(ten[:knnK-1:knnK-1], ten[0])...)},
		{"knn query", knn, http.StatusOK, knnBody(knnK, append([]string{"q"}, ten[1:]...)...)},
		{"knn unknown", knn, http.StatusOK, knnBody(knnK, append([]string{"zz"}, ten[1:]...)...)},
		{"knn order", knn, http.StatusOK, outOfOrder},
		{"knn similarity", knn, http.StatusOK, strings.Replace(knnBody(knnK, ten...), "0.9", "1.5", 1)},
		{"reload generation", reload, http.StatusOK, `{"generation":1}`},
	}
	for _, b := range bad {
		if err := validate(b.r, b.status, []byte(b.body), names); err == nil {
			t.Errorf("%s: corrupt body accepted", b.name)
		}
	}
}
