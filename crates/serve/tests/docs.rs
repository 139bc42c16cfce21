//! DESIGN.md §10's protocol table names every endpoint; this test keeps its
//! first column equal to `server::ROUTES`, in both directions.

use sd_serve::server::ROUTES;

const DESIGN: &str = include_str!("../../../DESIGN.md");

#[test]
fn section_10_lists_every_route_once() {
    let body = DESIGN.split("| method and path | body → reply |").nth(1).expect("the §10 table");
    let rows = body.lines().skip(2).take_while(|l| l.starts_with('|'));
    let first_cells = rows.map(|l| l.trim_start_matches("| ").split(" | ").next().expect("a cell"));
    let mut documented: Vec<&str> =
        first_cells.flat_map(|cell| cell.split('`').skip(1).step_by(2)).collect();
    let mut declared: Vec<String> = ROUTES.iter().map(|r| format!("{} {}", r.method, r.path)).collect();
    documented.sort_unstable();
    declared.sort_unstable();
    let unique = declared.len();
    declared.dedup();
    assert_eq!(declared.len(), unique, "a route is declared twice");
    assert_eq!(documented, declared);
}
