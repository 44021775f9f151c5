create table emp (name string, emp_no int primary key, salary float);
create table audit_log (name string, salary float);
create index emp_no_ix on emp (emp_no);
create index emp_salary_ix on emp (salary) using ordered;
insert into emp values ('ada', 1, 100.0), ('bob', 2, 200.0), ('cyd', 3, 300.0);
explain select * from emp where emp_no = 2;
explain select name from emp where salary = 200.0;
explain delete from emp where emp_no in (1, 2);
explain update emp set salary = salary + 1.0 where name = 'ada';
explain insert into audit_log values ('x', 0.0);
create rule audit
when deleted from emp
if exists (select * from deleted emp where salary > 100.0)
then insert into audit_log select name, salary from deleted emp;;
explain rule audit;
explain rule uq_emp_emp_no;
.stats emp
.stats audit_log
.stats missing
explain select name from emp where salary between 100.0 and 250.0;
explain select name from emp where salary > 250.0;
explain select * from emp e, audit_log a where e.name = a.name;
insert into audit_log values ('ada', 1.0), ('bob', 2.0);
select e.name, a.salary from emp e, audit_log a where e.name = a.name order by e.name;
.stats
.trace on
delete from emp where emp_no = 3;
.trace
.trace dump -
.report
select name from emp order by emp_no;
create table badge (emp_no int, floor int);
create index badge_no_ix on badge (emp_no);
insert into badge values (1, 1), (2, 2), (3, 3), (4, 0), (5, 1), (6, 2), (7, 3), (8, 0), (9, 1), (10, 2), (11, 3), (12, 0), (13, 1), (14, 2), (15, 3), (16, 0);
explain select floor from badge where emp_no in (3, 7);
create table lineitem (oid int, iid int, qty int);
create table item (iid int, price int);
create index li_oid on lineitem (oid);
create index item_iid on item (iid);
insert into lineitem values (7, 1, 1), (7, 2, 2), (7, 3, 3), (7, 4, 4), (1, 5, 1), (2, 6, 1), (3, 7, 1), (4, 8, 1), (5, 9, 1), (6, 10, 1), (8, 11, 1), (9, 12, 1);
insert into item values (1, 10), (2, 20), (3, 30), (4, 40), (5, 50), (6, 60), (7, 70), (8, 80), (9, 90), (10, 100), (11, 110), (12, 120), (13, 130), (14, 140), (15, 150), (16, 160);
explain select sum(l.qty * i.price) from lineitem l, item i where l.iid = i.iid and l.oid = 7;
select sum(l.qty * i.price) from lineitem l, item i where l.iid = i.iid and l.oid = 7;
.q
